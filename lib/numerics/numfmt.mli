(** The numeric-format abstraction the precision analyzer consumes.

    One closed view over every value format a PICACHU lane can run: the Q
    fixed-point formats of the INT16/INT32 lanes plus the floating-point
    stack ({!Minifloat}: FP4 E2M1, FP8 E4M3/E5M2, bfloat16, binary16,
    binary32).  Each format answers the three questions static precision
    analysis asks — how wide is it ({!bits}), how large a magnitude can it
    hold ({!max_value}), and how much can one round-to-nearest step move a
    value of a given magnitude ({!quantum}) — and supplies the bit-accurate
    {!quantize} the soundness harness executes against. *)

type t = Fixed of Fixed_point.fmt | Float of Minifloat.t

val fixed : total_bits:int -> frac_bits:int -> t

val name : t -> string
(** ["q8.8"], ["fp8_e4m3"], ["bf16"], ... *)

val bits : t -> int
(** Storage width — the cost axis format selection minimizes. *)

val max_value : t -> float
(** Largest finite representable magnitude. *)

val quantize : t -> float -> float
(** Bit-accurate round-to-nearest through the format, in one step
    ({!Fixed_point.round}, {!Minifloat.round}).  Finite values beyond
    {!max_value} saturate in every format. *)

val quantum : t -> mag:float -> float
(** Sound upper bound on [|quantize t x - x|] over all [|x| <= mag], for
    [mag <= max_value t]: a half quantum for fixed point, a half ulp at
    [mag]'s binade (floored at the subnormal spacing) for floats. *)

val exact_sums : t -> bool
(** Whether addition/subtraction of in-format, in-range values is exact
    (fixed-point grids are closed under addition; float formats round). *)

val catalogue : t list
(** The candidate ladder format selection walks, cheapest (narrowest)
    first: fp4_e2m1, fp8_e4m3, fp8_e5m2, q4.4, q4.8, bf16, fp16, q8.8,
    q16.16, fp32. *)
