module Fx = Fixed_point
module Mf = Minifloat

type t = Fixed of Fx.fmt | Float of Mf.t

let fixed ~total_bits ~frac_bits = Fixed (Fx.fmt ~total_bits ~frac_bits)

let name = function
  | Fixed f -> Printf.sprintf "q%d.%d" (f.Fx.total_bits - f.Fx.frac_bits) f.Fx.frac_bits
  | Float f -> f.Mf.name

let bits = function Fixed f -> f.Fx.total_bits | Float f -> f.Mf.bits

let max_value = function
  | Fixed f -> Fx.to_float f (Fx.max_int_value f)
  | Float f -> f.Mf.max_value

let quantize t x = match t with Fixed f -> Fx.round f x | Float f -> Mf.round f x

let quantum t ~mag =
  match t with
  | Fixed f -> Float.ldexp 1.0 (-(f.Fx.frac_bits + 1))
  | Float f ->
      if mag = 0.0 then 0.0
      else
        (* mag = m * 2^e with m in [0.5, 1), so every |x| <= mag sits at or
           below the [2^(e-1), 2^e) binade whose ulp is 2^(e-1-mant); the
           spacing never shrinks below the subnormal quantum *)
        let _, e = Float.frexp mag in
        let ulp_exp = Stdlib.max (e - 1) f.Mf.emin - f.Mf.mant_bits in
        Float.ldexp 1.0 (ulp_exp - 1)

let exact_sums = function Fixed _ -> true | Float _ -> false

let catalogue =
  [
    Float Mf.e2m1;
    Float Mf.e4m3;
    Float Mf.e5m2;
    fixed ~total_bits:8 ~frac_bits:4;
    fixed ~total_bits:12 ~frac_bits:8;
    Float Mf.bf16;
    Float Mf.fp16;
    fixed ~total_bits:16 ~frac_bits:8;
    fixed ~total_bits:32 ~frac_bits:16;
    Float Mf.fp32;
  ]
