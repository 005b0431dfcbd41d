(** Affine arithmetic — the correlation-tracking numeric domain under the
    precision analyzer.

    An abstract value is an affine form [c + Σ xi·εi + rad·ε'] over noise
    symbols [εi ∈ [-1, 1]]; forms that share symbols stay correlated
    through linear operations ([x - x] is exactly [0]) and the dedicated
    square rule keeps [x*x] non-negative, which a plain interval domain
    cannot.  Nonlinear remainders are absorbed into the anonymous residual
    radius [rad], so forms never grow beyond the symbols their inputs
    introduced.  All operations are sound: the concrete value always lies
    within {!interval} of its form. *)

type t = private {
  c : float;  (** center *)
  terms : (int * float) array;  (** symbol id -> coefficient, ids increasing *)
  rad : float;  (** anonymous residual radius, [>= 0] *)
}

type ctx
(** Noise-symbol allocator.  One per analysis run; forms from different
    contexts must not be mixed. *)

val ctx : unit -> ctx

val const : float -> t
val top : t
(** The unbounded form ([rad = ∞]). *)

val of_interval : ctx -> float -> float -> t
(** A fresh form spanning [[lo, hi]] with one new noise symbol (no symbol
    when the interval is a point; {!top} when unbounded or malformed). *)

val interval : t -> float * float
(** Enclosing interval [c ± radius]. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

val mul : t -> t -> t
(** Affine product with the quadratic remainder lumped into [rad].
    Physically equal arguments use the square rule ([Dx·Dx ∈ [0, R²]],
    recentered), proving [x*x >= 0]. *)

val div : ctx -> t -> t -> t
(** [a * (1/b)], with [1/b] by min-range linearization over a provably
    zero-free interval (keeps [b]'s symbols, so a quotient of correlated
    forms stays tight); {!top} when [b]'s interval straddles zero. *)

val join : ctx -> t -> t -> t
(** Interval hull as a fresh form (correlation with the operands is
    lost). *)

val abs : ctx -> t -> t
val floor : ctx -> t -> t
val max_ : ctx -> t -> t -> t
val min_ : ctx -> t -> t -> t
