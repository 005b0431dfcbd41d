(* One record per binary floating-point format and one round-to-nearest-even
   for all of them.

   [round] works on the float64 bit pattern: the 53-bit significand is
   rounded once, keeping [mant_bits] bits below the leading one, and one
   more bit goes for every binade below [emin] (gradual underflow).  The
   result is an integer times a power of two built from bits, so nothing
   rounds twice and no frexp/ldexp sits on the path.  Finite overflow
   saturates to [max_value] in every format — the accelerator convention:
   an infinity would poison a whole tile the way a silent fixed-point wrap
   would. *)

type t = {
  name : string;
  bits : int;
  mant_bits : int;
  emin : int;
  max_value : float;
  has_inf : bool;
  has_nan : bool;
}

let e2m1 =
  { name = "fp4_e2m1"; bits = 4; mant_bits = 1; emin = 0; max_value = 6.0;
    has_inf = false; has_nan = false }

let e4m3 =
  { name = "fp8_e4m3"; bits = 8; mant_bits = 3; emin = -6; max_value = 448.0;
    has_inf = false; has_nan = true }

let e5m2 =
  { name = "fp8_e5m2"; bits = 8; mant_bits = 2; emin = -14; max_value = 57344.0;
    has_inf = true; has_nan = true }

let bf16 =
  { name = "bf16"; bits = 16; mant_bits = 7; emin = -126; max_value = 0x1.fep127;
    has_inf = true; has_nan = true }

let fp16 =
  { name = "fp16"; bits = 16; mant_bits = 10; emin = -14; max_value = 65504.0;
    has_inf = true; has_nan = true }

let fp32 =
  { name = "fp32"; bits = 32; mant_bits = 23; emin = -126;
    max_value = 0x1.fffffep127; has_inf = true; has_nan = true }

let min_positive_subnormal f = Float.ldexp 1.0 (f.emin - f.mant_bits)

(* 2^k for k in the float64 normal range *)
let pow2 k = Int64.float_of_bits (Int64.shift_left (Int64.of_int (k + 1023)) 52)

let round f x =
  let b = Int64.bits_of_float x in
  let biased = Int64.to_int (Int64.shift_right_logical b 52) land 0x7FF in
  if biased = 0x7FF then
    if Float.is_nan x then if f.has_nan then x else 0.0
    else if f.has_inf then x
    else Float.copy_sign f.max_value x
  else
    (* |x| = sig * 2^(e - 52); the kept quantum is 2^k *)
    let frac = Int64.to_int b land 0xF_FFFF_FFFF_FFFF in
    let sig_, e =
      if biased = 0 then (frac, -1022) else (frac lor (1 lsl 52), biased - 1023)
    in
    let k = Stdlib.max e f.emin - f.mant_bits in
    let drop = k - e + 52 in
    if drop > 53 then Float.copy_sign 0.0 x
    else
      let q = sig_ lsr drop in
      let rem = sig_ land ((1 lsl drop) - 1) and half = 1 lsl (drop - 1) in
      let q = if rem > half || (rem = half && q land 1 = 1) then q + 1 else q in
      let v = float_of_int q *. pow2 k in
      Float.copy_sign (if v > f.max_value then f.max_value else v) x

let round32 x = Int32.float_of_bits (Int32.bits_of_float x)
