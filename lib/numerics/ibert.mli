(** I-BERT integer-only approximations (Kim et al., 2021) — baseline.

    I-BERT computes nonlinear functions on INT8-quantized activations with
    second-order polynomials:

    - i-exp: for [x <= 0], split [x = p - z ln2] with [p] in [(-ln2, 0]];
      [exp x = 2^-z L(p)], [L(p) = 0.3585 (p + 1.353)^2 + 0.344].
    - i-erf (for GeLU): [erf x ~ sgn x * (a (clip(|x|, b) + b')^2 + 1)] with
      the published coefficients; saturates beyond |x| = 1.769.
    - i-sqrt: integer Newton iteration.

    The paper's Table 2 shows these methods collapse on LLaMA-family models
    (PPL ~1e4): the INT8 activation grid cannot represent the heavy-tailed,
    outlier-dominated activations of modern LLMs, and the fixed quadratic has
    no accuracy headroom.  This module reproduces the method faithfully —
    integer arithmetic on (q, scale) pairs after INT8 quantization — so the
    collapse emerges rather than being hard-coded. *)

val bits : int
(** Activation bit width the method assumes (8). *)

val calibrated_absmax : float
(** The static calibration range (+-8): post-training INT8 schemes fix the
    activation grid offline, which is exactly what LLM outlier channels
    overflow. *)

val i_exp : scale:float -> int -> int * float
(** Integer exp for [q * scale <= 0]; positive inputs are clamped to 0. *)

val i_sqrt : int -> int
(** Integer square root by Newton iteration (floor). *)

(* Tensor-level entry points used by the approximation backend: each
   quantizes its input to INT8 per-tensor, runs the integer method, and
   dequantizes. *)

val exp_v : float array -> float array
(** Element-wise exp of (x - max x), the softmax numerator I-BERT computes. *)

val gelu_v : float array -> float array
val sigmoid_v : float array -> float array
(** Derived from i-exp (I-BERT has no native sigmoid; this is how one must
    port it to SiLU/SwiGLU models). *)

val isqrt_scalar : float -> float
(** 1/sqrt via i-sqrt on a fixed-point integer representation. *)
