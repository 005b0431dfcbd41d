(* Q5.26 fixed point on 32-bit words, following gemmlowp's
   fixedpoint/fixedpoint.h structure. *)
let q26 = Fixed_point.fmt ~total_bits:32 ~frac_bits:26
let one_q26 = 1 lsl 26
let quarter_q26 = one_q26 / 4
let static_range = 16.0  (* Q5.26 format bound *)

(* exp(r) for r in (-1/4, 0], gemmlowp's
   exp_on_interval_between_negative_one_quarter_and_0_excl: a 4th-order
   Taylor rearrangement evaluated in fixed point. *)
let exp_on_quarter_interval r_q26 =
  let mul = Fixed_point.mul q26 in
  let x = r_q26 + (quarter_q26 / 2) (* recentred at -1/8 as gemmlowp does *) in
  let x2 = mul x x in
  let x3 = mul x2 x in
  let x4 = mul x3 x in
  let c_exp_neg_eighth = Fixed_point.of_float q26 (exp (-0.125)) in
  let term =
    one_q26 + x + (x2 / 2) + (x3 / 6) + (x4 / 24)
  in
  mul c_exp_neg_eighth term

let exp_barrel_constants =
  (* exp(-2^k / 4) for k = 0..6 in Q26 *)
  Lazy.from_val (Array.init 7 (fun k -> Fixed_point.of_float q26 (exp (-.(2.0 ** float_of_int k) /. 4.0))))

let exp_on_negative x =
  if x >= 0.0 then 1.0
  else if x < -16.0 then 0.0
  else
    let x_q = Fixed_point.of_float (Fixed_point.fmt ~total_bits:40 ~frac_bits:26) x in
    (* number of whole quarters (towards -inf) and the remainder in (-1/4, 0] *)
    let neg_quarters = -x_q / quarter_q26 in
    let neg_quarters =
      if -x_q mod quarter_q26 = 0 then neg_quarters else neg_quarters + 1
    in
    let r_q26 = x_q + (neg_quarters * quarter_q26) in
    let acc = ref (exp_on_quarter_interval r_q26) in
    let consts = Lazy.force exp_barrel_constants in
    let n = ref neg_quarters and k = ref 0 in
    while !n > 0 && !k < 7 do
      if !n land 1 = 1 then acc := Fixed_point.mul q26 !acc consts.(!k);
      n := !n asr 1;
      incr k
    done;
    if !n > 0 then 0.0 else Fixed_point.to_float q26 !acc

let logistic x =
  (* clamp to the static calibrated range, then use
     sigmoid(x) = 1/(1 + exp(-|x|)) with fixed-point one-over-one-plus-x *)
  let x = Float.max (-.static_range) (Float.min static_range x) in
  let e = exp_on_negative (-.Float.abs x) in
  let e_q = Fixed_point.of_float q26 e in
  (* one_over_one_plus_x_for_x_in_0_1 via Newton in Q26 *)
  let denom_q = one_q26 + e_q in
  let y = ref (Fixed_point.of_float q26 (1.0 /. (1.0 +. Fixed_point.to_float q26 e_q))) in
  (* one Newton polish: y <- y (2 - d y) *)
  let two_q = 2 * one_q26 in
  let dy = Fixed_point.mul q26 denom_q !y in
  y := Fixed_point.mul q26 !y (Fixed_point.saturate q26 (two_q - dy));
  let s = Fixed_point.to_float q26 !y in
  if x >= 0.0 then Float.min 1.0 (1.0 -. (s *. e)) else s *. e

let tanh x =
  let x = Float.max (-.static_range) (Float.min static_range x) in
  (* tanh(x) = 2 logistic(2x) - 1 *)
  (2.0 *. logistic (2.0 *. x)) -. 1.0

let static_quantize xs =
  (* per-tensor INT16 requantization at the operator boundary, the usual
     gemmlowp deployment; damage comes from the fixed-point kernels, not
     from input clipping *)
  let absmax = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 xs in
  let scale = Quant.scale_for ~bits:16 ~absmax in
  Array.map
    (fun x ->
      let q = Quant.quantize_value ~bits:16 ~scale x in
      float_of_int q *. scale)
    xs

let exp_v xs =
  let xs' = static_quantize xs in
  let m = Array.fold_left Float.max neg_infinity xs' in
  Array.map (fun x -> exp_on_negative (x -. m)) xs'

let sigmoid_v xs = Array.map logistic (static_quantize xs)

let gelu_v xs =
  let c = sqrt (2.0 /. Float.pi) in
  Array.map
    (fun x -> 0.5 *. x *. (1.0 +. tanh (c *. (x +. (0.044715 *. x *. x *. x)))))
    (static_quantize xs)
