(** The PICACHU nonlinear-operator algorithm (paper §4.1, Table 3).

    Each basic operator is decomposed so that the part fed to a Taylor
    polynomial lies in a small range:

    - [exp x]: compute [t = log2(e) * x], split [t] into integer [i] and
      fraction [f] in [0, 1) with the FP2FX unit, compute [2^i] exactly by
      exponent manipulation and [2^f] by a Taylor polynomial in [f], then
      multiply.
    - [log x]: extract exponent [e] and mantissa [m] ([x = 2^e * (1+m)],
      [m] in [0, 1)); [log x = (e + log2(1+m)) * ln 2] with [log2(1+m)]
      from the Taylor series of [log(1+m)].
    - [sin x] / [cos x]: range-reduce into [-pi/2, pi/2], then Taylor.
    - [isqrt]: Newton refinement seeded by exponent halving — the "standard
      method from GNU libc" the paper cites; it runs outside the hot loops.

    [order] is the number of the highest polynomial power retained; it is the
    user-defined precision knob of §3.2.3.  Every intermediate step is rounded
    through FP32 ([Minifloat.round32]) to model the CGRA's internal format. *)

type config = { order : int }

val default : config
(** Order 6: the operating point used for the headline accuracy results. *)

val exp : ?cfg:config -> float -> float
val log : ?cfg:config -> float -> float
(** Natural log; requires a positive, finite argument (returns [nan]
    otherwise, like the libm convention for negatives and [-inf] at 0). *)

val sin : ?cfg:config -> float -> float
val cos : ?cfg:config -> float -> float
val isqrt : ?iterations:int -> float -> float
(** [1 / sqrt x] for positive [x]; [iterations] Newton steps (default 3). *)

val div : float -> float -> float
(** Division is implemented directly in a pipelined FU (§4.1); modelled as an
    FP32-rounded divide. *)

val sigmoid : ?cfg:config -> float -> float
(** [1 / (1 + exp (-x))], built from the exp and div operators above — the
    composition used by SiLU/SwiGLU. *)

val tanh : ?cfg:config -> float -> float
(** Built from exp per Table 1's GeLU definition. *)
