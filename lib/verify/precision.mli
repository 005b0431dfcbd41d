(** Static precision analysis over the kernel IR (affine-arithmetic domain)
    and proven-bound automatic format selection.

    Abstract values are pairs of an {!Affine} form of the *ideal* value
    (the dataflow evaluated in exact real arithmetic on the same quantized
    inputs) and an error radius bounding [|finite - ideal|] for a machine
    that rounds every computed data-path result through a {!Numfmt} format.
    Loops run through the {!Absint} driver (inputs in [[-2, 2]],
    trip-bounded accumulating-join fixpoint); every quantized op
    contributes one fresh rounding quantum at its proven magnitude, and an
    op whose finite value may leave the format loses its bound.  Findings:
    [prec-overflow] when the value range (or range plus error) exceeds the
    format, [prec-unbounded] when no finite range or error bound is
    proven, and [prec-div-error] when a divisor's interval contains zero
    or its error reaches its distance from zero.  This is the analysis
    [picachu lint] runs, at each kernel's selected format.

    The per-kernel {!result.bound} is a *guaranteed* worst-case output
    error — no execution involved; the qcheck soundness harness in the test
    suite independently checks bit-accurate runs against it.
    {!select_format} closes the loop: walk the candidate ladder cheapest
    first and pick the first format whose proven bound fits the error
    budget. *)

module Numfmt = Picachu_numerics.Numfmt

val rounder :
  Numfmt.t -> Picachu_ir.Kernel.loop -> Picachu_ir.Instr.t -> float -> float
(** The bit-accurate execution model as an {!Picachu_ir.Interp} rounding
    hook: quantizes exactly the instruction results the analyzer charges a
    rounding quantum for ({!Absint.skeleton_ids} excluded).  Partially
    apply per loop. *)

type result = {
  fmt : Numfmt.t;
  bound : float;
      (** sup over all stored streams of the proven [|finite - ideal|];
          [infinity] when some store has no finite proof *)
  findings : Finding.t list;
  outputs : (string * (float * float) * float) list;
      (** per stored stream: ideal value interval and proven error bound *)
}

val analyze : fmt:Numfmt.t -> Picachu_ir.Kernel.t -> result

type choice = {
  kernel : string;
  budget : float;
  fmt : Numfmt.t;  (** the chosen (cheapest proving, or fallback) format *)
  bound : float;  (** its proven bound; [infinity] when nothing proves *)
  fallback : bool;  (** no candidate met the budget *)
  tried : (Numfmt.t * float) list;  (** every candidate's proven bound *)
}

val default_budget : unit -> float
(** [PICACHU_ERROR_BUDGET] when set, else [1e-2].  Raises
    [Invalid_argument] naming the variable when it is set but not a finite
    positive float. *)

val resolve_budget : float option -> float
(** The given budget, else {!default_budget}; raises [Invalid_argument]
    unless it is finite and positive. *)

val select_format :
  ?budget:float ->
  ?candidates:Numfmt.t list ->
  Picachu_ir.Kernel.t ->
  choice
(** Walk [candidates] (default {!Numfmt.catalogue}, cheapest first) and
    choose the first whose proven bound is within the budget; otherwise
    fall back to the best-proven (or widest) candidate with
    [fallback = true].  The budget goes through {!resolve_budget}. *)
