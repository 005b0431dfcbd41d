(** Polynomial evaluation helpers.

    The PICACHU algorithm decomposes nonlinear operators into Taylor
    polynomials (paper §4.1).  Polynomials are evaluated with Horner's scheme
    in FP, and with the completing-the-square rewrite in INT arithmetic: a
    quadratic [a + b x + c x^2] becomes [c (x + b/2c)^2 + (a - b^2/4c)], which
    needs only one multiply of quantized values per term pair (the I-BERT
    trick the paper adopts for its own integer path). *)

val horner : float array -> float -> float
(** [horner [|c0; c1; ...; cn|] x] = [c0 + c1 x + ... + cn x^n]. An empty
    coefficient array evaluates to 0. *)

type quadratic = { a : float; b : float; c : float }
(** [a + b x + c x^2]. *)

val complete_square : quadratic -> float * float * float
(** [(s, d, e)] with [a + b x + c x^2 = c * (x + d)^2 + e] (requires
    [c <> 0]); [s] = [c]. *)

val eval_quadratic_int :
  quadratic -> in_scale:float -> bits:int -> int -> int * float
(** Evaluate the quadratic on a quantized input [q] with scale [in_scale]
    using completing-the-square integer arithmetic: returns the output
    integer and its scale. Intermediates are saturated to [4*bits] to model
    the widened accumulators of the INT lanes. *)

val exp_taylor_coeffs : order:int -> float array
(** Taylor coefficients of [2^f] around 0 expressed in powers of [f]:
    [1, ln2, ln2^2/2, ...] (Table 3 step 4). *)

val log1p_taylor_coeffs : order:int -> float array
(** Coefficients of [log(1+m)]: [0, 1, -1/2, 1/3, ...]. *)

val sin_taylor : order:int -> float -> float
(** Odd-power Taylor polynomial of sin up to [t^order]. *)

val cos_taylor : order:int -> float -> float
(** Even-power Taylor polynomial of cos up to [t^order]. *)
