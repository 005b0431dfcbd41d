(** Error and summary statistics used by the accuracy experiments. *)

type error_report = {
  max_abs : float;  (** worst-case absolute error *)
  max_rel : float;  (** worst-case relative error (guarded denominator) *)
  rmse : float;  (** root mean squared error *)
  mean_abs : float;  (** mean absolute error *)
}

val compare_tensors : reference:Tensor.t -> candidate:Tensor.t -> error_report
(** Element-wise error of [candidate] against [reference]. Raises
    [Invalid_argument] on shape mismatch. *)

val compare_fn :
  ?n:int -> lo:float -> hi:float -> reference:(float -> float) ->
  candidate:(float -> float) -> unit -> error_report
(** Error of a scalar function sampled on [n] evenly spaced points of
    [lo, hi] (default [n = 1024]). *)

val pp_error : Format.formatter -> error_report -> unit

val geomean : float list -> float
(** Geometric mean; the conventional aggregate for speedup ratios. Raises
    [Invalid_argument] on an empty list or a non-positive element. *)

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [0, 100]; linear interpolation, copies and
    sorts with [Float.compare] (total order: NaNs sort below every other
    value, and no polymorphic-compare cost on hot metric paths), then reads
    the copy with {!percentile_sorted}. *)

val percentile_sorted : float array -> len:int -> float -> float
(** [percentile_sorted a ~len p] is the percentile of the prefix
    [a.(0 .. len - 1)], which the caller keeps sorted under [Float.compare];
    it neither copies nor sorts, so a caller that reads several percentiles,
    or one that grows a sorted buffer, pays for the sort once.  Same
    interpolation as {!percentile}, which is this formula over a sorted copy:
    on the same values the two return the same bits.  Raises
    [Invalid_argument] when [len] is outside [1, Array.length a] or [p] is
    outside [0, 100]. *)
