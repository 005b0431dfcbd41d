(** Non-uniform linear interpolation (NLI) approximation backend.

    Approximates a nonlinear operator directly with an error-equalized
    piecewise-linear interpolant (the NLI paper's strategy), as the
    competing backend to the Taylor-expansion engine: automatic breakpoint
    fitting places segments densely where the function curves, the fitted
    segment table lives in CoT LUT ROM, and evaluation is range classify →
    segment index → one fused multiply-add.

    Fitting binary-searches the per-segment error threshold around a
    greedy maximal left-to-right cover, so the budgeted table converges to
    the smallest threshold every segment can honor (error equalization);
    the number of segments needed is monotone in the threshold, hence a
    larger budget never fits worse. *)

type fit = {
  table : Lut.t;  (** non-uniform table, node values FP16-rounded *)
  max_err : float;
      (** measured sup |table - f| over a dense grid of the fitted range,
          including the FP16 node rounding *)
  target_err : float;  (** the equalization threshold the search reached *)
  segments : int;
}

val fit :
  ?segments:int -> ?grid:int -> lo:float -> hi:float -> (float -> float) -> fit
(** Fit [f] over [lo, hi] with at most [segments] linear pieces (default
    64), sampling on a [grid]+1-point calibration grid (default 1024).
    Requires a finite [f] on the range. *)

val per_segment_errors : fit -> (float -> float) -> float array
(** Measured per-segment sup deviation of the shipped table from [f] —
    the equalization witness (every entry is at most [max_err], and
    interior cuts are where one more sample would have exceeded
    [target_err]). *)

val standard : (string * fit) list
(** The shipped operator tables, fitted eagerly at load: [nli.exp] (the
    max-shifted softmax numerator over [-20, 0]), [nli.gelu] / [nli.silu]
    / [nli.sigmoid] / [nli.tanh], [nli.sin] / [nli.cos] (range-reduced
    angles), and the frexp-reduced [nli.recip] (one binade) and
    [nli.isqrt] (two binades). *)

val fit_of_name : string -> fit option
val table_of_name : string -> Lut.t option

(** {2 Range-reduced scalar evaluators}

    The software model of the NLI datapath: table interpolation plus the
    same range reductions the CGRA kernels perform (max shift, angle
    folding, frexp exponent split). *)

val exp_neg : float -> float
(** [exp d] for a max-shifted argument [d <= 0] (clamped below -20). *)

val gelu : float -> float
val silu : float -> float
val sigmoid : float -> float
val tanh : float -> float
val sin : float -> float
val cos : float -> float
val recip : float -> float
val div : float -> float -> float
val isqrt : float -> float
(** [1 / sqrt x] for positive finite [x] (falls back to the libm value on
    other inputs, like {!Taylor.isqrt}'s conventions). *)
