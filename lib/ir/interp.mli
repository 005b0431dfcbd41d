(** Reference interpreter for kernels.

    Executes a kernel over named input streams and scalars, producing output
    streams and exported scalars, in float64.  This is the functional
    specification the compiler pipeline must preserve: tests check that DFG
    extraction, fusion, unrolling and mapping never change a kernel's
    input/output behaviour (fusion and unrolling are interpreted by
    re-expanding fused nodes / stepping offsets).

    Special ops execute their hardware semantics: [Fp2fx_*] split [x] into
    [floor x] and [x - floor x] (the decomposition of
    {!Picachu_numerics.Fixed_point.split}), [Shift_exp] is [ldexp] with a
    rounded shift amount, [Lut] evaluates the named CoT table. *)

type env = {
  arrays : (string * float array) list;
  scalars : (string * float) list;
}

type result = {
  out_arrays : (string * float array) list;
  out_scalars : (string * float) list;
}

exception Runtime_error of string

val lookup_lut : string -> Picachu_numerics.Lut.t
(** The tables shipped with the CoTs, resolved through
    {!Picachu_numerics.Lut_catalog}: ["phi"] (uniform Gaussian CDF) and the
    ["nli.*"] non-uniform segment tables.  Raises [Runtime_error] on an
    unknown table. *)

val run :
  ?round:(Kernel.loop -> Instr.t -> float -> float) -> Kernel.t -> env -> result
(** The trip-count scalar of each loop (its [trip_input]) must divide into
    the streams consistently: every loaded stream must have at least
    [trip * step] elements. Raises [Runtime_error] on missing streams,
    scalars, or malformed bodies.

    [?round] models a finite machine: it is applied to every instruction
    result before it is written back (staged once per loop, so the hook can
    precompute per-loop facts such as the control skeleton).  The default
    is the identity — plain float64 reference semantics. *)

val eval_op : Op.t -> (int -> float) -> float
(** [eval_op op arg] is the value of every opcode that depends only on its
    operands, [arg i] reading operand [i]: arithmetic, [Un], [Cmp] (1.0 or
    0.0), [Select] (any nonzero condition, NaN included, picks the second
    operand), [Fp2fx_*], [Shift_exp], [Lut] and [Br] (its condition).  The
    one definition both this interpreter and the cycle-timed executor run.
    Raises [Invalid_argument] on [Const], [Input], [Phi], [Load], [Store]
    and [Fused], whose values each engine supplies itself. *)

val eval_sexpr : (string * float) list -> Kernel.sexpr -> float

val trip_scalar : Kernel.loop -> string
(** Name of the scalar input the loop's exit branch compares against — its
    element count. Raises [Runtime_error] on a malformed loop. *)
