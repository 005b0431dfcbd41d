(** Loop-based kernels.

    A kernel is the unit the PICACHU compiler offloads to the CGRA: one or
    more single-level loops over 1-D streams (§3.1 — higher-rank tensors are
    flattened), plus cheap scalar glue computed between loops (e.g. the
    inverse square root that normalization applies outside its hot loops,
    §4.1).

    Loops are classified element-wise (EO) or reduction-then-element-wise
    (RE) following Table 1; the classification drives the Shared Buffer data
    flow cases of §4.2.4. *)

type sexpr =
  | Svar of string
  | Sconst of float
  | Sbin of Op.binop * sexpr * sexpr
  | Sisqrt of sexpr  (** the libc-style inverse square root (§4.1) *)

type loop = {
  label : string;  (** e.g. ["softmax.2"] *)
  pre : (string * sexpr) list;
      (** scalars computed before the loop starts, in order *)
  body : Instr.t list;  (** includes the induction/branch skeleton *)
  reduction : bool;
  exports : (string * int) list;
      (** scalar name -> instr whose last-iteration value becomes live-out *)
  step : int;  (** elements consumed per iteration (UF after unrolling) *)
  vector_width : int;  (** lanes per element op (INT16 vectorization) *)
}

type klass = EO | RE

type t = {
  name : string;
  klass : klass;
  loops : loop list;
  inputs : string list;  (** stream names read *)
  outputs : string list;  (** stream names written *)
  scalar_inputs : string list;  (** required scalar live-ins, e.g. ["n"] *)
}

val kernel_instr_count : t -> int
val find : loop -> int -> Instr.t
(** Lookup by id; raises [Not_found]. *)

val validate : t -> (unit, string) result
(** Structural checks: ids dense and ordered, args resolve, the only forward
    references are phi back edges, no opcode is fused (fusion belongs to
    the DFG), exactly one [Br], stores name declared
    outputs, loads name declared inputs, every [Const] and every [pre]
    constant is finite, and the induction phi and its increment are read
    only by each other, the loop compare and load/store address operands
    (and are never exported) — the unroller re-bases addresses through
    [offset], so it would give any other reader copy 0's index. *)
