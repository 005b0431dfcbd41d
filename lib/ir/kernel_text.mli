(** Textual kernel format.

    A stable, human-writable serialization of {!Kernel.t}, so kernels can be
    authored, versioned and exchanged without writing OCaml — the role the
    paper's "predefined kernel codes written in C++" play in its toolchain.

    Shape of the format (see {!to_string} output for any library kernel):

    {v
    kernel softmax RE
    inputs x
    outputs e y
    scalars n
    loop softmax.1 reduction step=1 vw=1
      export m = %5
      %0 = const 0x0p+0
      %1 = phi %0 %7
      %2 = load x %1
      ...
    endloop
    endkernel
    v}

    Inter-loop scalar glue uses fully parenthesized expressions:
    [pre mu = (sum div n)], [pre inv = isqrt((v add 0x1.4f8b588e368f1p-17))];
    operators use the binop mnemonics and constants hex floats, as in the
    body.

    Opcodes without an operand field are spelled by {!Op.name}; the
    parametric ones add their operand ([const %h], [input]/[load]/[store]/
    [lut NAME], [cmp.PRED]).  Fused opcodes are a DFG-level artifact: they
    print as their mnemonic (e.g. [cmp+select]) but do not parse. *)

exception Parse_error of string
(** Carries a line number and a description. *)

val to_string : Kernel.t -> string

val structural_digest : Kernel.t -> string
(** MD5 hex digest of {!to_string} with the kernel name and every loop
    label written as [_] — the kernel component of the compiler's
    content-addressed cache key.  Two kernels that differ only in naming
    describe the same compilation problem and share a digest; every other
    field (class, stream and scalar names, loop attributes, glue, exports,
    opcodes, arguments, offsets, constants to the bit) is part of it. *)

val of_string : string -> Kernel.t
(** Parses and validates; raises {!Parse_error} on malformed input and on
    kernels that fail {!Kernel.validate}. *)
