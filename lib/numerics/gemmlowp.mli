(** gemmlowp fixed-point approximations (Jacob & Warden, 2017) — baseline.

    gemmlowp's fixed-point math library computes [exp] on negative values in
    Q5.26: the input is split into quarter-units; the fractional remainder in
    [(-1/4, 0]] feeds a small rational/Taylor kernel, and each set bit of the
    quarter count multiplies by a precomputed constant [exp(-2^k/4)].
    Logistic and tanh are built on top.  Inputs are requantized to an INT16
    grid per tensor; the accuracy bottleneck the paper's Table 2 exposes on
    LLMs is the fixed-point kernels themselves (cubic-order polynomial,
    Q5.26 saturation): moderate PPL degradation, between FP16 and I-BERT. *)

val exp_on_negative : float -> float
(** [exp x] for [x <= 0] through the Q5.26 fixed-point pipeline; positive
    inputs are clamped to 0; values below -16 flush to 0 (the gemmlowp
    saturation). *)

val logistic : float -> float
(** Fixed-point sigmoid; input saturates at the Q5.26 bound. *)

val tanh : float -> float
(** Fixed-point tanh; input saturates at the Q5.26 bound. *)

val exp_v : float array -> float array
(** Softmax-style exp of (x - max x) on the static INT16 grid. *)

val sigmoid_v : float array -> float array
val gelu_v : float array -> float array
(** GeLU via the tanh form computed with fixed-point tanh. *)

val static_range : float
(** Saturation bound of the Q5.26 kernel inputs (16.0). *)
