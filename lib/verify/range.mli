(** Fixed-point range analysis over the kernel IR (interval domain).

    The INT16 execution lanes evaluate the Taylor-expansion kernels in
    fixed point (§4.2.2); a value whose dynamic range leaves the Q format
    saturates, and one far below a quantum flushes to zero.  This pass
    abstractly executes a kernel over intervals through the {!Absint}
    driver — inputs in [[-2, 2]], loop-carried phis iterated to a joined
    fixpoint bounded by the maximum trip count — and reports every
    instruction whose value interval escapes the representable range
    ([fx-overflow] / [fx-unbounded]), may divide by zero ([div-by-zero]),
    or sits entirely below one quantum ([fx-precision], informational).

    The analysis is conservative: a kernel it calls {!safe} provably keeps
    every data-path value representable for all inputs in range, but a
    flagged kernel may still be exact on benign inputs (intervals do not
    track correlations, e.g. [x*x] is analyzed as possibly negative).  The
    loop-control skeleton ({!Absint.skeleton_ids}) lives on the integer
    control path and is excluded from format checks. *)

type itv = { lo : float; hi : float }

val make : float -> float -> itv
(** Normalizes a misordered pair. *)

val join : itv -> itv -> itv
val is_finite : itv -> bool

val binop_i : Picachu_ir.Op.binop -> itv -> itv -> itv
(** Interval transfer function of a primitive binary op (exposed for
    tests).  Division by an interval that provably excludes zero takes
    tight endpoint quotients; a divisor with zero as one endpoint keeps the
    finite bound from its nonzero end (half-bounded result) instead of
    widening to top. *)

val fx_bounds : Picachu_numerics.Fixed_point.fmt -> float * float
(** Representable [(min, max)] of a format, as floats. *)

val analyze :
  ?fmt:Picachu_numerics.Fixed_point.fmt -> Picachu_ir.Kernel.t -> Finding.t list
(** All range findings for a kernel against [fmt] (default Q8.8, the
    INT16 lane), loops analyzed in program order with exported scalars and
    intermediate streams flowing forward. *)

val safe : ?fmt:Picachu_numerics.Fixed_point.fmt -> Picachu_ir.Kernel.t -> bool
(** No finding above Info severity: every data-path value provably fits
    the format for all inputs in range. *)
