let horner coeffs x =
  let acc = ref 0.0 in
  for i = Array.length coeffs - 1 downto 0 do
    acc := (!acc *. x) +. coeffs.(i)
  done;
  !acc

let factorial k =
  let acc = ref 1.0 in
  for i = 2 to k do
    acc := !acc *. float_of_int i
  done;
  !acc

type quadratic = { a : float; b : float; c : float }

let complete_square { a; b; c } =
  if c = 0.0 then invalid_arg "Poly.complete_square: c = 0";
  let d = b /. (2.0 *. c) in
  let e = a -. (b *. b /. (4.0 *. c)) in
  (c, d, e)

let eval_quadratic_int quad ~in_scale ~bits q =
  let s, d, e = complete_square quad in
  (* q_d = round(d / in_scale); (q + q_d)^2 has scale in_scale^2; the scale
     factor s folds into the output scale, so the constant e must be
     expressed on that *output* grid (e / (s in_scale^2)), exactly as in
     I-BERT's int-poly. *)
  (* squared terms accumulate in 4x-width registers (INT32 for INT8 inputs,
     as I-BERT specifies): the shift by q_d can push |q + q_d| well past the
     input width *)
  let wide_bits = Stdlib.min 62 (4 * bits) in
  let q_d = int_of_float (Float.round (d /. in_scale)) in
  let shifted = Quant.saturating_cast ~bits q (* input already in range *) + q_d in
  let sq = Quant.saturating_cast ~bits:wide_bits (shifted * shifted) in
  let out_scale = s *. in_scale *. in_scale in
  let q_e = int_of_float (Float.round (e /. out_scale)) in
  let out = Quant.saturating_cast ~bits:wide_bits (sq + q_e) in
  (out, out_scale)

let exp_taylor_coeffs ~order =
  let ln2 = log 2.0 in
  Array.init (order + 1) (fun k -> (ln2 ** float_of_int k) /. factorial k)

let log1p_taylor_coeffs ~order =
  Array.init (order + 1) (fun k ->
      if k = 0 then 0.0
      else
        let sign = if k mod 2 = 1 then 1.0 else -1.0 in
        sign /. float_of_int k)

let sin_taylor ~order t =
  let acc = ref 0.0 and term = ref t and k = ref 1 in
  while !k <= order do
    acc := !acc +. !term;
    (* next odd term: multiply by -t^2 / ((k+1)(k+2)) *)
    term := !term *. -.(t *. t) /. float_of_int ((!k + 1) * (!k + 2));
    k := !k + 2
  done;
  !acc

let cos_taylor ~order t =
  let acc = ref 0.0 and term = ref 1.0 and k = ref 0 in
  while !k <= order do
    acc := !acc +. !term;
    term := !term *. -.(t *. t) /. float_of_int ((!k + 1) * (!k + 2));
    k := !k + 2
  done;
  !acc
