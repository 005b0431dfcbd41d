(** Binary floating-point formats narrower than float64: one record each,
    one rounding function for all.

    PICACHU's CGRA takes FP16 inputs and computes in FP32 (paper §4.2.1);
    format selection also weighs the OCP MX FP4 (E2M1) and FP8 (E4M3,
    E5M2) layouts and bfloat16.  {!round} models storing a value in any of
    them: round-to-nearest, ties to even, applied once to the float64
    input, with gradual underflow below [emin].  Finite values past
    [max_value] saturate to it in every format. *)

type t = {
  name : string;  (** ["fp4_e2m1"], ["fp8_e4m3"], ["bf16"], ... *)
  bits : int;  (** storage width *)
  mant_bits : int;  (** explicit mantissa bits *)
  emin : int;  (** unbiased exponent of the smallest normal *)
  max_value : float;  (** largest finite magnitude *)
  has_inf : bool;  (** ±infinity is a code (otherwise it saturates) *)
  has_nan : bool;  (** NaN is a code (otherwise it becomes +0) *)
}

val e2m1 : t
(** OCP MX FP4: no infinity, no NaN; magnitudes 0, 0.5, 1, 1.5, 2, 3, 4, 6. *)

val e4m3 : t
(** OCP FP8 E4M3: no infinity, NaN only at S.1111.111; max 448. *)

val e5m2 : t
(** OCP FP8 E5M2: IEEE-like top row; max 57344. *)

val bf16 : t
(** bfloat16: binary32's exponent range, 7 mantissa bits. *)

val fp16 : t
(** IEEE binary16; max 65504. *)

val fp32 : t
(** IEEE binary32. *)

val min_positive_subnormal : t -> float
(** [2^(emin - mant_bits)]. *)

val round : t -> float -> float
(** The nearest value of the format, ties to the even code.  Signed zeros
    keep their sign; finite overflow saturates to ±[max_value]; ±infinity
    passes through where [has_inf] and saturates otherwise; NaN passes
    through where [has_nan] and becomes +0 otherwise. *)

val round32 : float -> float
(** The float64 → binary32 cast: the FP32 datapath's rounding, overflow to
    infinity included.  Equal to [round fp32] on finite values within
    range. *)
