(** The abstract-interpretation driver under the static precision
    analysis of the kernel IR.

    The abstract domain is the functor parameter ({!Precision} supplies
    an affine ideal value plus an error radius against a
    {!Picachu_numerics.Numfmt} format); the fixpoint algorithm lives here,
    apart from the transfer rules: the trip-count seed of the loop-control
    skeleton, the between-loop scalar glue, stream and scalar lookup, phi
    joins, the trip-bounded accumulating-join fixpoint (ended early, and
    exactly, once a data path that never reads the loop-control skeleton
    stops changing), store and export recording, the fold over a kernel's
    loops, and the walk that turns per-instruction checks into
    {!Finding.t} values.

    Inputs are fixed, not configured: every input stream element and every
    scalar live-in lies in [[-2, 2]] (the repository's standard test
    vectors), and no loop runs more than 1024 iterations. *)

val skeleton_ids : Picachu_ir.Instr.t array -> int list
(** Instruction ids of the loop-control skeleton (branch, bound compare,
    induction increment/phi and the trip-count register) — the integer
    control path excluded from data-path checks and from rounding.
    Derived independently of {!Picachu_ir.Transform.find_skeleton}. *)

type input = Stream | Scalar

val fixpoint_rounds : unit -> int
(** Fixpoint rounds run so far by every analysis built on this driver, in
    every loop, summed process-wide.  An atomic, so it stays exact under
    the domain pool; attributing rounds to one analysis is the caller's
    business (reset, run, read). *)

val reset_fixpoint_rounds : unit -> unit

val report :
  Finding.severity ->
  string ->
  ('a, unit, string, (Finding.severity * string * string) list) format4 ->
  'a
(** [report sev code fmt ...] is the one-finding list a {!DOMAIN.check}
    returns, with a printf-style message. *)

module type DOMAIN = sig
  type ctx
  (** Per-run analysis state (the checked format, symbol allocators). *)

  type value
  (** Abstract value of one instruction in one iteration. *)

  type cell
  (** Abstract value joined across iterations (and across stores). *)

  val pass : Finding.pass

  val top : value
  (** Unknown: missing operands and fused nodes. *)

  val const : float -> value
  val binop : ctx -> Picachu_ir.Op.binop -> value -> value -> value
  (** Scalar-glue arithmetic (host path, no rounding). *)

  val isqrt : ctx -> value -> value
  val to_cell : value -> cell
  val of_cell : ctx -> cell -> value
  val join : cell -> cell -> cell
  val equal : cell -> cell -> bool

  val input : ctx -> input -> float -> float -> cell
  (** The cell of an input known to lie in [[lo, hi]]. *)

  val transfer :
    ctx ->
    body:Picachu_ir.Instr.t array ->
    value:(int -> value) ->
    Picachu_ir.Instr.t ->
    arg:(int -> value) ->
    value
  (** Transfer rule of a data op.  [value id] is an earlier instruction's
      value this iteration, [arg k] the instruction's [k]-th operand; both
      are {!top} when out of range.  Never called on [Const], [Input],
      [Phi], [Load], [Store], [Br] or [Fused], which the driver evaluates. *)

  val check :
    ctx ->
    cell array ->
    Picachu_ir.Instr.t ->
    (Finding.severity * string * string) list
  (** [(severity, code, message)] findings for one non-skeleton
      instruction, given the loop's fixpoint cells. *)
end

module Make (D : DOMAIN) : sig
  val analyze :
    D.ctx -> Picachu_ir.Kernel.t -> Finding.t list * (string * D.cell) list
  (** Run the kernel's loops in program order, exported scalars and stored
      streams flowing forward.  Returns every loop's findings (program
      order) and the joined cell of every stored stream, sorted by name. *)
end
