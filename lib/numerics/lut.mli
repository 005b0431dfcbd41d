(** Look-up tables for hard-to-compute functions.

    Compute Tiles (CoTs) carry small LUTs holding precomputed values of
    functions with no cheap arithmetic decomposition — the paper's example is
    the Gaussian CDF [Phi] used by exact GeLU (§4.2.1).  A table covers a
    clamped input range and linearly interpolates between stored samples;
    entries are stored rounded to FP16 ([Minifloat.round fp16]), the natural
    width of an on-tile ROM word.

    Two grid shapes share the representation: uniformly spaced entries (the
    CoT tables, grid implicit) and explicit non-uniform breakpoints (the NLI
    error-equalized segment tables, classified by binary search).  Uniform
    evaluation keeps its historical arithmetic bit-for-bit. *)

type t

val create : ?entries:int -> lo:float -> hi:float -> (float -> float) -> t
(** Tabulate [f] over [lo, hi] with [entries] uniformly spaced samples
    (default 1024).  Requires [lo < hi] and [entries >= 2]. *)

val create_nonuniform : breakpoints:float array -> (float -> float) -> t
(** Tabulate [f] at the given strictly increasing breakpoints (at least 2);
    values round through FP16 like every ROM word. *)

val eval : t -> float -> float
(** Clamped linear interpolation.  Exactly the stored value at a node. *)

val entries : t -> int
val size_bytes : t -> int
(** ROM footprint: 2 bytes/entry for uniform tables; 4 bytes/entry for
    non-uniform ones (value word + breakpoint word for the classifier). *)

val lo : t -> float
val hi : t -> float
(** Clamp bounds (first and last node). *)

val breakpoints : t -> float array
(** The node positions (materialized for uniform grids); fresh array. *)

val is_uniform : t -> bool

val interval : t -> float -> float -> float * float
(** [(min, max)] of the clamped interpolant over the given query interval —
    sound for any table, exact for PWL (extrema sit at nodes or clamped
    endpoints). *)

val max_abs_slope : t -> float
(** Lipschitz constant of the clamped interpolant (max |segment slope|) —
    the PWL error-transfer rule the precision analyzer applies. *)

val gauss_cdf : t Lazy.t
(** Phi over [-6, 6] — the GeLU table shipped with the CoTs. *)

val gauss_cdf_exact : float -> float
(** Reference Phi(x) = (1 + erf(x/sqrt2))/2 computed in float64 (software
    reference for the table; erf via Abramowitz-Stegun 7.1.26 refined with a
    series fallback, accurate to ~1e-7 which is below FP16 resolution). *)
