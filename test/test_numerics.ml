(* Tests for the numerics substrate: formats, the PICACHU operator algorithm
   (FP and INT datapaths), the LUT, and the I-BERT / gemmlowp baselines. *)
open Picachu_numerics

let check_float = Alcotest.(check (float 1e-12))
let check_close eps = Alcotest.(check (float eps))
let qtest = QCheck_alcotest.to_alcotest

let rel_err ref v =
  Float.abs (ref -. v) /. Float.max 1e-12 (Float.abs ref)

(* ------------------------------------------------------------- Minifloat *)

module Mf = Minifloat

(* An independent decoder for the oracle: each format's bit layout written
   out from the OCP / IEEE 754 definitions (exponent width, mantissa width,
   bias, and what the all-ones exponent row means), sharing no code with
   [Minifloat.round].  [None] is a NaN code. *)
type top_row = Ieee  (** inf and NaN *) | Nan_at_max  (** E4M3 *) | All_finite  (** E2M1 *)

let layout (f : Mf.t) =
  if f == Mf.e2m1 then (2, 1, 1, All_finite)
  else if f == Mf.e4m3 then (4, 3, 7, Nan_at_max)
  else if f == Mf.e5m2 then (5, 2, 15, Ieee)
  else if f == Mf.bf16 then (8, 7, 127, Ieee)
  else if f == Mf.fp16 then (5, 10, 15, Ieee)
  else invalid_arg "layout"

let decode f code =
  let eb, mb, bias, top = layout f in
  let sign = if (code lsr (eb + mb)) land 1 = 1 then -1.0 else 1.0 in
  let e = (code lsr mb) land ((1 lsl eb) - 1) and m = code land ((1 lsl mb) - 1) in
  let all_ones = e = (1 lsl eb) - 1 in
  match top with
  | Ieee when all_ones -> if m = 0 then Some (sign *. infinity) else None
  | Nan_at_max when all_ones && m = (1 lsl mb) - 1 -> None
  | _ ->
      if e = 0 then Some (sign *. Float.ldexp (float_of_int m) (1 - bias - mb))
      else Some (sign *. Float.ldexp (float_of_int ((1 lsl mb) lor m)) (e - bias - mb))

let codes f =
  let eb, mb, _, _ = layout f in
  1 lsl (1 + eb + mb)

let is_neg_zero v = v = 0.0 && 1.0 /. v = neg_infinity

(* [round f x] lands on the value of [code] *)
let check_encodes f name code x =
  let r = Mf.round f x in
  match decode f code with
  | None -> Alcotest.(check bool) name true (Float.is_nan r)
  | Some v ->
      Alcotest.(check (float 0.0)) name v r;
      Alcotest.(check bool) (name ^ " sign") (Float.sign_bit v) (Float.sign_bit r)

(* Every code: its value is a fixed point of [round] (signed zeros keep
   their sign, infinities and NaN where the format has them pass through),
   and the largest finite value is [max_value]. *)
let check_all_codes f =
  let largest = ref 0.0 in
  for code = 0 to codes f - 1 do
    let v = decode f code in
    let name = Printf.sprintf "%s code %#x" f.Mf.name code in
    check_encodes f name code (Option.value v ~default:Float.nan);
    match v with
    | Some v when Float.is_finite v -> largest := Float.max !largest v
    | _ -> ()
  done;
  Alcotest.(check (float 0.0)) (f.Mf.name ^ " max_value") !largest f.Mf.max_value;
  check_encodes f (f.Mf.name ^ " min subnormal") 1 (Mf.min_positive_subnormal f)

(* Between each pair of adjacent finite codes (positive codes count up in
   value): the exact midpoint goes to the even code, one float64 ulp below
   it goes down and one ulp above it goes up; the negative side mirrors. *)
let check_midpoints f =
  let half = codes f / 2 in
  for c = 0 to half - 2 do
    match (decode f c, decode f (c + 1)) with
    | Some a, Some b when Float.is_finite b ->
        let mid = (a +. b) /. 2.0 in
        let name = Printf.sprintf "%s between %#x and %#x" f.Mf.name c (c + 1) in
        let tie = if c land 1 = 0 then a else b in
        let check what want x =
          Alcotest.(check (float 0.0)) (name ^ what) want (Mf.round f x);
          Alcotest.(check (float 0.0)) (name ^ what ^ " (negated)") (-.want)
            (Mf.round f (-.x))
        in
        check " tie" tie mid;
        check " below" a (Float.pred mid);
        check " above" b (Float.succ mid)
    | _ -> ()
  done

let test_fp16_known_encodings () =
  let f = Mf.fp16 in
  check_encodes f "1.0" 0x3C00 1.0;
  check_encodes f "-2.0" 0xC000 (-2.0);
  check_encodes f "0.5" 0x3800 0.5;
  check_encodes f "1/3" 0x3555 (1.0 /. 3.0);
  check_encodes f "65504" 0x7BFF 65504.0;
  check_encodes f "inf" 0x7C00 infinity;
  check_encodes f "-inf" 0xFC00 neg_infinity;
  check_encodes f "+0" 0x0000 0.0;
  check_encodes f "-0" 0x8000 (-0.0)

let test_fp16_decode_known () =
  (* the oracle decoder itself, against the IEEE 754 table *)
  let d code = Option.get (decode Mf.fp16 code) in
  check_float "decode 1.0" 1.0 (d 0x3C00);
  check_float "decode max" 65504.0 (d 0x7BFF);
  check_float "decode smallest subnormal" (2.0 ** -24.0) (d 0x0001);
  check_float "min_positive_subnormal" (2.0 ** -24.0) (Mf.min_positive_subnormal Mf.fp16);
  Alcotest.(check bool) "decode nan" true (decode Mf.fp16 0x7E00 = None)

let test_fp16_overflow_saturates () =
  (* finite overflow saturates, as in every format; infinity stays *)
  check_float "66000 -> 65504" 65504.0 (Mf.round Mf.fp16 66000.0);
  check_float "-66000 -> -65504" (-65504.0) (Mf.round Mf.fp16 (-66000.0));
  check_float "65504 stays" 65504.0 (Mf.round Mf.fp16 65504.0)

let test_fp16_round_to_nearest_even () =
  (* 2049 is exactly between representables 2048 and 2050: ties to even *)
  check_float "tie to even" 2048.0 (Mf.round Mf.fp16 2049.0);
  check_float "above tie" 2052.0 (Mf.round Mf.fp16 2051.0)

let test_fp16_all_codes_roundtrip () = check_all_codes Mf.fp16

let prop_fp16_roundtrip_idempotent =
  QCheck.Test.make ~name:"fp16 round is idempotent" ~count:1000
    (QCheck.float_range (-60000.0) 60000.0) (fun x ->
      let r = Mf.round Mf.fp16 x in
      Mf.round Mf.fp16 r = r)

let prop_fp16_relative_error =
  QCheck.Test.make ~name:"fp16 relative error within half-ulp" ~count:1000
    (QCheck.float_range 6.2e-5 60000.0) (fun x ->
      rel_err x (Mf.round Mf.fp16 x) <= (2.0 ** -11.0) +. 1e-12)

let prop_fp16_monotone =
  QCheck.Test.make ~name:"fp16 rounding is monotone" ~count:1000
    (QCheck.pair (QCheck.float_range (-1000.0) 1000.0) (QCheck.float_range (-1000.0) 1000.0))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Mf.round Mf.fp16 lo <= Mf.round Mf.fp16 hi)

let test_minifloat_midpoints () =
  List.iter check_midpoints [ Mf.e2m1; Mf.e4m3; Mf.e5m2; Mf.bf16; Mf.fp16 ]

let test_minifloat_special_values () =
  (* format, what +infinity becomes, whether NaN survives *)
  List.iter
    (fun (f, inf_to, keeps_nan) ->
      let r = Mf.round f in
      let name s = f.Mf.name ^ " " ^ s in
      check_float (name "+inf") inf_to (r infinity);
      check_float (name "-inf") (-.inf_to) (r neg_infinity);
      if keeps_nan then Alcotest.(check bool) (name "nan stays") true (Float.is_nan (r Float.nan))
      else
        Alcotest.(check bool) (name "nan -> +0") true
          (r Float.nan = 0.0 && not (Float.sign_bit (r Float.nan)));
      Alcotest.(check bool) (name "-0 keeps its sign") true (is_neg_zero (r (-0.0)));
      Alcotest.(check bool) (name "+0 stays positive") false (Float.sign_bit (r 0.0));
      Alcotest.(check bool) (name "tiny negative -> -0") true (is_neg_zero (r (-1e-300)));
      check_float (name "finite overflow saturates") f.Mf.max_value (r (4.0 *. f.Mf.max_value));
      check_float (name "max_float saturates") (-.f.Mf.max_value) (r (-.Float.max_float)))
    [
      (Mf.e2m1, 6.0, false);
      (Mf.e4m3, 448.0, true);
      (Mf.e5m2, infinity, true);
      (Mf.bf16, infinity, true);
      (Mf.fp16, infinity, true);
      (Mf.fp32, infinity, true);
    ]

let prop_fp32_is_the_cast =
  QCheck.Test.make ~name:"fp32 round is the binary32 cast" ~count:1000
    (QCheck.pair (QCheck.float_range 1.0 2.0) (QCheck.int_range (-160) 126))
    (fun (m, e) ->
      let x = Float.ldexp m e in
      Mf.round Mf.fp32 x = Mf.round32 x)

(* ----------------------------------------------------------- Fixed_point *)

let test_fx_fmt_validation () =
  Alcotest.check_raises "bad total" (Invalid_argument "Fixed_point.fmt: total_bits")
    (fun () -> ignore (Fixed_point.fmt ~total_bits:63 ~frac_bits:10));
  Alcotest.check_raises "bad frac" (Invalid_argument "Fixed_point.fmt: frac_bits")
    (fun () -> ignore (Fixed_point.fmt ~total_bits:16 ~frac_bits:16))

let test_fx_roundtrip () =
  let f = Fixed_point.q15 in
  check_close 1e-4 "roundtrip" 0.333 (Fixed_point.round f 0.333);
  check_float "exact half" 0.5 (Fixed_point.round f 0.5)

let test_fx_saturation () =
  let f = Fixed_point.q15 in
  Alcotest.(check int) "positive saturate" (Fixed_point.max_int_value f)
    (Fixed_point.of_float f 2.0);
  Alcotest.(check int) "negative saturate" (Fixed_point.min_int_value f)
    (Fixed_point.of_float f (-2.0))

let test_fx_overflow_saturates () =
  (* int_of_float is unspecified out of range (1e30 came back as 0): an
     overflowed exp intermediate must clamp to the format max, not zero *)
  let f = Fixed_point.q15 in
  Alcotest.(check int) "+inf" 32767 (Fixed_point.of_float f infinity);
  Alcotest.(check int) "-inf" (-32768) (Fixed_point.of_float f neg_infinity);
  Alcotest.(check int) "1e30" 32767 (Fixed_point.of_float f 1e30);
  Alcotest.(check int) "-1e30" (-32768) (Fixed_point.of_float f (-1e30));
  Alcotest.(check int) "nan still 0" 0 (Fixed_point.of_float f nan);
  let g = Fixed_point.q31 in
  Alcotest.(check int) "q31 +inf" (Fixed_point.max_int_value g)
    (Fixed_point.of_float g infinity);
  Alcotest.(check int) "q31 -inf" (Fixed_point.min_int_value g)
    (Fixed_point.of_float g neg_infinity);
  Alcotest.(check int) "q31 1e30" (Fixed_point.max_int_value g)
    (Fixed_point.of_float g 1e30)

let prop_fx_of_float_saturating_roundtrip =
  QCheck.Test.make ~name:"to_float (of_float f x) within one LSB of the clamp"
    ~count:1000
    (QCheck.float_range (-1e12) 1e12)
    (fun x ->
      let f = Fixed_point.q15 in
      let lsb = 1.0 /. 32768.0 in
      let lo = Fixed_point.to_float f (Fixed_point.min_int_value f) in
      let hi = Fixed_point.to_float f (Fixed_point.max_int_value f) in
      let clamped = Float.min (Float.max x lo) hi in
      Float.abs (Fixed_point.to_float f (Fixed_point.of_float f x) -. clamped)
      <= lsb +. 1e-15)

let test_fx_mul () =
  let f = Fixed_point.fmt ~total_bits:32 ~frac_bits:16 in
  let a = Fixed_point.of_float f 1.5 and b = Fixed_point.of_float f 2.25 in
  check_close 1e-4 "product" 3.375 (Fixed_point.to_float f (Fixed_point.mul f a b))

let test_fx_mul_corners () =
  (* q31 min x min is 2^62, which wraps OCaml's native int; the Int64
     product must saturate to the format max instead *)
  let q31 = Fixed_point.q31 in
  let mn = Fixed_point.min_int_value q31 and mx = Fixed_point.max_int_value q31 in
  Alcotest.(check int) "q31 min*min saturates" mx (Fixed_point.mul q31 mn mn);
  Alcotest.(check int) "q31 min*max" (-mx) (Fixed_point.mul q31 mn mx);
  Alcotest.(check int) "q31 max*max" (mx - 1) (Fixed_point.mul q31 mx mx);
  let q15 = Fixed_point.q15 in
  Alcotest.(check int) "q15 min*min saturates" (Fixed_point.max_int_value q15)
    (Fixed_point.mul q15 (Fixed_point.min_int_value q15)
       (Fixed_point.min_int_value q15))

let test_fx_split () =
  let i, fr = Fixed_point.split 3.75 in
  Alcotest.(check int) "int part" 3 i;
  check_float "frac part" 0.75 fr;
  let i, fr = Fixed_point.split (-1.25) in
  Alcotest.(check int) "negative floors" (-2) i;
  check_float "frac in [0,1)" 0.75 fr

let prop_fx_split_reconstructs =
  QCheck.Test.make ~name:"split reconstructs x with frac in [0,1)" ~count:1000
    (QCheck.float_range (-1e6) 1e6) (fun x ->
      let i, f = Fixed_point.split x in
      f >= 0.0 && f < 1.0 && Float.abs (float_of_int i +. f -. x) < 1e-6)

let prop_fx_roundtrip_error =
  QCheck.Test.make ~name:"fixed-point roundtrip error <= half lsb" ~count:1000
    (QCheck.float_range (-0.999) 0.999) (fun x ->
      let f = Fixed_point.q15 in
      Float.abs (Fixed_point.round f x -. x) <= 0.5 /. 32768.0 +. 1e-12)

(* ----------------------------------------------------------------- Quant *)

let test_quant_roundtrip_bound () =
  let open Picachu_tensor in
  let r = Rng.create 2 in
  let t = Tensor.randn r [ 256 ] ~mu:0.0 ~sigma:2.0 in
  let q = Quant.quantize ~bits:8 t in
  let back = Quant.dequantize q in
  for i = 0 to 255 do
    Alcotest.(check bool) "error within half step" true
      (Float.abs (Tensor.get t i -. Tensor.get back i) <= q.Quant.scale /. 2.0 +. 1e-12)
  done

let test_quant_zero_tensor () =
  let t = Picachu_tensor.Tensor.create [ 4 ] in
  let q = Quant.quantize ~bits:8 t in
  check_float "scale defaults to 1" 1.0 q.Quant.scale

let test_saturating_cast () =
  Alcotest.(check int) "clamps high" 127 (Quant.saturating_cast ~bits:8 300);
  Alcotest.(check int) "clamps low" (-128) (Quant.saturating_cast ~bits:8 (-300));
  Alcotest.(check int) "passes through" 42 (Quant.saturating_cast ~bits:8 42)

let test_requantize () =
  let t = Picachu_tensor.Tensor.of_array [ 2 ] [| 1.0; -0.5 |] in
  let q = Quant.quantize ~bits:16 t in
  let q2 = Quant.requantize q ~new_scale:(q.Quant.scale *. 2.0) in
  let back = Quant.dequantize q2 in
  Alcotest.(check bool) "value preserved" true
    (Picachu_tensor.Tensor.equal ~eps:(q2.Quant.scale) t
       (Picachu_tensor.Tensor.reshape back [ 2 ]))

(* ------------------------------------------------------------------ Poly *)

let prop_horner_matches_naive =
  QCheck.Test.make ~name:"horner matches naive evaluation" ~count:500
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 0 8) (QCheck.float_range (-5.0) 5.0))
       (QCheck.float_range (-2.0) 2.0))
    (fun (coeffs, x) ->
      let c = Array.of_list coeffs in
      let naive =
        Array.to_list (Array.mapi (fun k ck -> ck *. (x ** float_of_int k)) c)
        |> List.fold_left ( +. ) 0.0
      in
      Float.abs (Poly.horner c x -. naive) < 1e-6)

let prop_complete_square_identity =
  QCheck.Test.make ~name:"completing the square preserves the quadratic" ~count:500
    (QCheck.quad (QCheck.float_range (-5.0) 5.0) (QCheck.float_range (-5.0) 5.0)
       (QCheck.float_range 0.1 5.0) (QCheck.float_range (-3.0) 3.0))
    (fun (a, b, c, x) ->
      let s, d, e = Poly.complete_square { Poly.a; b; c } in
      let direct = a +. (b *. x) +. (c *. x *. x) in
      let squared = (s *. (x +. d) *. (x +. d)) +. e in
      Float.abs (direct -. squared) < 1e-6)

let test_exp_coeffs () =
  let c = Poly.exp_taylor_coeffs ~order:3 in
  check_float "c0" 1.0 c.(0);
  check_float "c1 = ln2" (log 2.0) c.(1);
  check_close 1e-12 "c2 = ln2^2/2" (log 2.0 ** 2.0 /. 2.0) c.(2)

let test_eval_quadratic_int () =
  (* the I-BERT exp quadratic on a mid-range point *)
  let quad = { Poly.a = 0.344; b = 0.0; c = 0.3585 } in
  let quad = { quad with Poly.b = 2.0 *. 0.3585 *. 1.353 } in
  (* a + bx + cx^2 with completing-the-square equals c(x+1.353)^2 + const *)
  let in_scale = 0.7 /. 127.0 in
  let q = Quant.quantize_value ~bits:8 ~scale:in_scale (-0.3) in
  let q_out, out_scale = Poly.eval_quadratic_int quad ~in_scale ~bits:8 q in
  let got = float_of_int q_out *. out_scale in
  let expect = quad.Poly.a +. (quad.Poly.b *. -0.3) +. (quad.Poly.c *. 0.09) in
  check_close 0.02 "integer quadratic tracks float" expect got

(* ----------------------------------------------------- Taylor (FP path) *)

let grid ~lo ~hi n f =
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)) in
    worst := Float.max !worst (f x)
  done;
  !worst

let test_taylor_exp_accuracy () =
  let w = grid ~lo:(-30.0) ~hi:8.0 1000 (fun x -> rel_err (exp x) (Taylor.exp x)) in
  Alcotest.(check bool) "exp rel err < 1e-4" true (w < 1e-4)

let test_taylor_exp_edges () =
  check_float "exp(-inf)" 0.0 (Taylor.exp neg_infinity);
  Alcotest.(check bool) "exp(inf)" true (Taylor.exp infinity = infinity);
  Alcotest.(check bool) "exp(nan)" true (Float.is_nan (Taylor.exp nan));
  check_close 1e-6 "exp(0)" 1.0 (Taylor.exp 0.0)

let test_taylor_log_accuracy () =
  let w = grid ~lo:0.001 ~hi:1000.0 1000 (fun x -> rel_err (log x) (Taylor.log x)) in
  Alcotest.(check bool) "log rel err < 1e-3" true (w < 1e-3)

let test_taylor_log_edges () =
  Alcotest.(check bool) "log(-1) nan" true (Float.is_nan (Taylor.log (-1.0)));
  Alcotest.(check bool) "log 0" true (Taylor.log 0.0 = neg_infinity);
  check_close 1e-6 "log 1" 0.0 (Taylor.log 1.0)

let test_taylor_trig_accuracy () =
  (* default order 6 keeps sin terms through t^5: worst case ~t^7/7! at the
     range-reduction boundary, i.e. ~5e-3 *)
  let ws = grid ~lo:(-10.0) ~hi:10.0 1000 (fun x -> Float.abs (sin x -. Taylor.sin x)) in
  let wc = grid ~lo:(-10.0) ~hi:10.0 1000 (fun x -> Float.abs (cos x -. Taylor.cos x)) in
  Alcotest.(check bool) "sin abs err < 6e-3" true (ws < 6e-3);
  Alcotest.(check bool) "cos abs err < 1.5e-3" true (wc < 1.5e-3)

let test_taylor_isqrt () =
  let w =
    grid ~lo:0.001 ~hi:10000.0 1000 (fun x -> rel_err (1.0 /. sqrt x) (Taylor.isqrt x))
  in
  Alcotest.(check bool) "isqrt rel err < 1e-6" true (w < 1e-6);
  Alcotest.(check bool) "isqrt of negative" true (Float.is_nan (Taylor.isqrt (-1.0)))

let test_taylor_sigmoid_tanh () =
  let ws =
    grid ~lo:(-12.0) ~hi:12.0 500 (fun x ->
        Float.abs ((1.0 /. (1.0 +. exp (-.x))) -. Taylor.sigmoid x))
  in
  let wt = grid ~lo:(-12.0) ~hi:12.0 500 (fun x -> Float.abs (tanh x -. Taylor.tanh x)) in
  Alcotest.(check bool) "sigmoid abs err < 1e-5" true (ws < 1e-5);
  Alcotest.(check bool) "tanh abs err < 1e-4" true (wt < 1e-4)

let test_taylor_order_monotone () =
  (* user-defined precision: error shrinks as the order grows *)
  let err order =
    grid ~lo:(-5.0) ~hi:2.0 200 (fun x ->
        rel_err (exp x) (Taylor.exp ~cfg:{ Taylor.order } x))
  in
  let e2 = err 2 and e4 = err 4 and e6 = err 6 in
  Alcotest.(check bool) "order 4 better than 2" true (e4 < e2);
  Alcotest.(check bool) "order 6 better than 4" true (e6 < e4)

let prop_taylor_sigmoid_bounded =
  QCheck.Test.make ~name:"sigmoid stays in (0,1)" ~count:500
    (QCheck.float_range (-80.0) 80.0) (fun x ->
      let s = Taylor.sigmoid x in
      s >= 0.0 && s <= 1.0)

(* ------------------------------------------------------ Int_ops (INT16) *)

let test_int_exp_accuracy () =
  let w = grid ~lo:(-20.0) ~hi:8.0 1000 (fun x -> rel_err (exp x) (Int_ops.exp x)) in
  Alcotest.(check bool) "int exp rel err < 1e-3" true (w < 1e-3)

let test_int_log_accuracy () =
  let w = grid ~lo:0.01 ~hi:1000.0 1000 (fun x -> rel_err (log x) (Int_ops.log x)) in
  Alcotest.(check bool) "int log rel err < 1e-3" true (w < 1e-3)

let test_int_trig_accuracy () =
  let ws = grid ~lo:(-6.0) ~hi:6.0 500 (fun x -> Float.abs (sin x -. Int_ops.sin x)) in
  let wc = grid ~lo:(-6.0) ~hi:6.0 500 (fun x -> Float.abs (cos x -. Int_ops.cos x)) in
  Alcotest.(check bool) "int sin abs err < 1e-3" true (ws < 1e-3);
  Alcotest.(check bool) "int cos abs err < 1e-2" true (wc < 1e-2)

let test_int_reciprocal () =
  let w = grid ~lo:0.01 ~hi:100.0 500 (fun x -> rel_err (1.0 /. x) (Int_ops.reciprocal x)) in
  Alcotest.(check bool) "reciprocal rel err < 1e-4" true (w < 1e-4);
  check_close 1e-6 "negative operand" (-0.25) (Int_ops.reciprocal (-4.0))

let test_int_isqrt_sigmoid () =
  let w = grid ~lo:0.01 ~hi:100.0 300 (fun x -> rel_err (1.0 /. sqrt x) (Int_ops.isqrt x)) in
  Alcotest.(check bool) "int isqrt < 1e-5" true (w < 1e-5);
  let ws =
    grid ~lo:(-10.0) ~hi:10.0 300 (fun x ->
        Float.abs ((1.0 /. (1.0 +. exp (-.x))) -. Int_ops.sigmoid x))
  in
  Alcotest.(check bool) "int sigmoid < 1e-3" true (ws < 1e-3)

(* ------------------------------------------------------------------- Lut *)

let test_lut_validation () =
  Alcotest.check_raises "entries" (Invalid_argument "Lut.create: entries < 2") (fun () ->
      ignore (Lut.create ~entries:1 ~lo:0.0 ~hi:1.0 (fun x -> x)));
  Alcotest.check_raises "range" (Invalid_argument "Lut.create: empty range") (fun () ->
      ignore (Lut.create ~lo:1.0 ~hi:1.0 (fun x -> x)))

let test_lut_clamps () =
  let l = Lut.create ~entries:16 ~lo:0.0 ~hi:1.0 (fun x -> x) in
  check_close 1e-3 "below lo" 0.0 (Lut.eval l (-5.0));
  check_close 1e-3 "above hi" 1.0 (Lut.eval l 10.0)

let test_lut_linear_exact () =
  (* a linear function interpolates with only FP16 storage error *)
  let l = Lut.create ~entries:64 ~lo:(-2.0) ~hi:2.0 (fun x -> (0.5 *. x) +. 0.25) in
  let w = grid ~lo:(-2.0) ~hi:2.0 200 (fun x -> Float.abs (Lut.eval l x -. ((0.5 *. x) +. 0.25))) in
  Alcotest.(check bool) "linear within fp16 step" true (w < 2e-3)

let test_lut_gauss_cdf () =
  let l = Lazy.force Lut.gauss_cdf in
  check_close 1e-3 "phi(0)" 0.5 (Lut.eval l 0.0);
  check_close 1e-3 "phi(6)" 1.0 (Lut.eval l 6.0);
  check_close 1e-3 "phi(-6)" 0.0 (Lut.eval l (-6.0));
  Alcotest.(check int) "rom bytes" 2048 (Lut.size_bytes l)

let test_gauss_cdf_exact () =
  check_close 1e-6 "phi(0)" 0.5 (Lut.gauss_cdf_exact 0.0);
  check_close 1e-4 "phi(1.96)" 0.975 (Lut.gauss_cdf_exact 1.96);
  check_close 1e-6 "symmetry" 1.0
    (Lut.gauss_cdf_exact 1.3 +. Lut.gauss_cdf_exact (-1.3))

(* ------------------------------------------------------------------- Nli *)

let tanh_family a x = Float.tanh (a *. x)

let test_nli_gelu_golden () =
  (* the shipped nli.gelu table, pinned: the fitter is deterministic, so a
     drift here means the fitting algorithm changed *)
  match Nli.fit_of_name "nli.gelu" with
  | None -> Alcotest.fail "nli.gelu missing from the standard tables"
  | Some f ->
      Alcotest.(check int) "segments" 64 f.Nli.segments;
      Alcotest.(check int) "entries" 65 (Lut.entries f.Nli.table);
      Alcotest.(check int) "rom bytes" 260 (Lut.size_bytes f.Nli.table);
      Alcotest.(check bool) "non-uniform" false (Lut.is_uniform f.Nli.table);
      check_float "lo" (-8.0) (Lut.lo f.Nli.table);
      check_float "hi" 8.0 (Lut.hi f.Nli.table);
      let bp = Lut.breakpoints f.Nli.table in
      check_float "first interior cut" (-3.71875) bp.(1);
      check_float "center cut" 0.0 bp.(Array.length bp / 2);
      check_close 1e-8 "max err" 1.017671e-3 f.Nli.max_err;
      Alcotest.(check bool) "threshold below measured sup" true
        (f.Nli.target_err <= f.Nli.max_err)

let prop_nli_equalized =
  QCheck.Test.make ~name:"nli per-segment errors equalized under max_err"
    ~count:50
    (QCheck.float_range 0.3 4.0)
    (fun a ->
      let f = tanh_family a in
      let fit = Nli.fit ~segments:24 ~lo:(-4.0) ~hi:4.0 f in
      let errs = Nli.per_segment_errors fit f in
      let mx = Array.fold_left Float.max 0.0 errs in
      (* the witness samples each segment on its own dense grid, so it
         agrees with the fit's global sup only up to sampling noise *)
      Array.for_all (fun e -> e <= (fit.Nli.max_err *. 1.02) +. 1e-9) errs
      && mx >= fit.Nli.max_err *. 0.98)

let prop_nli_budget_monotone =
  QCheck.Test.make ~name:"nli doubling the budget never fits worse" ~count:25
    QCheck.(pair (float_range 0.3 4.0) (int_range 4 48))
    (fun (a, s) ->
      let f = tanh_family a in
      let small = Nli.fit ~segments:s ~lo:(-4.0) ~hi:4.0 f in
      let big = Nli.fit ~segments:(2 * s) ~lo:(-4.0) ~hi:4.0 f in
      big.Nli.max_err <= small.Nli.max_err +. 1e-12)

let prop_nli_exact_at_breakpoints =
  QCheck.Test.make ~name:"nli eval exact at every breakpoint" ~count:50
    (QCheck.float_range 0.3 4.0)
    (fun a ->
      let f = tanh_family a in
      let fit = Nli.fit ~segments:16 ~lo:(-4.0) ~hi:4.0 f in
      (* node values are the function samples rounded through the FP16 ROM
         word, and interpolation returns the stored value at a node *)
      Array.for_all
        (fun x -> Lut.eval fit.Nli.table x = Mf.round Mf.fp16 (f x))
        (Lut.breakpoints fit.Nli.table))

let test_nli_scalar_evaluators () =
  (* the range-reduced software datapath tracks libm within table error *)
  check_close 2e-3 "exp_neg" (Float.exp (-3.2)) (Nli.exp_neg (-3.2));
  check_close 2e-3 "gelu" (1.7 *. Lut.gauss_cdf_exact 1.7) (Nli.gelu 1.7);
  check_close 2e-3 "silu" (2.5 /. (1.0 +. Float.exp (-2.5))) (Nli.silu 2.5);
  check_close 2e-3 "tanh" (Float.tanh 0.8) (Nli.tanh 0.8);
  check_close 2e-3 "sin" (Float.sin 10.0) (Nli.sin 10.0);
  check_close 2e-3 "cos" (Float.cos (-7.0)) (Nli.cos (-7.0));
  (* frexp reduction covers every positive binade with one table *)
  check_close 1e-2 "recip 300" (1.0 /. 300.0 *. 300.0) (Nli.recip 300.0 *. 300.0);
  check_close 1e-2 "isqrt 5e4" (1.0) (Nli.isqrt 5e4 *. Float.sqrt 5e4);
  check_close 1e-2 "div" (17.0 /. 3.0 /. 5.666) (Nli.div 17.0 3.0 /. 5.666)

(* ----------------------------------------------------------------- Ibert *)

let test_ibert_i_exp_accuracy () =
  (* within the calibrated regime the quadratic tracks exp to a few % *)
  let scale = 8.0 /. 127.0 in
  let worst = ref 0.0 in
  for q = -127 to 0 do
    let x = float_of_int q *. scale in
    let q_out, s_out = Ibert.i_exp ~scale q in
    let got = float_of_int q_out *. s_out in
    worst := Float.max !worst (Float.abs (got -. exp x))
  done;
  Alcotest.(check bool) "i-exp abs err < 0.035" true (!worst < 0.035)

let test_ibert_i_sqrt () =
  List.iter
    (fun n ->
      let s = Ibert.i_sqrt n in
      Alcotest.(check bool) "floor sqrt" true (s * s <= n && (s + 1) * (s + 1) > n))
    [ 0; 1; 2; 15; 16; 17; 1000; 999999 ];
  Alcotest.check_raises "negative" (Invalid_argument "Ibert.i_sqrt: negative") (fun () ->
      ignore (Ibert.i_sqrt (-1)))

let prop_ibert_i_sqrt_random =
  QCheck.Test.make ~name:"i_sqrt is floor sqrt" ~count:500 (QCheck.int_range 0 1_000_000)
    (fun n ->
      let s = Ibert.i_sqrt n in
      s * s <= n && (s + 1) * (s + 1) > n)

let test_ibert_exp_v_in_range () =
  let xs = [| 0.5; -1.0; 2.0; -3.0 |] in
  let es = Ibert.exp_v xs in
  Array.iteri
    (fun i e ->
      let expect = exp (xs.(i) -. 2.0) in
      Alcotest.(check bool) "within 5%" true (Float.abs (e -. expect) < 0.05))
    es

let test_ibert_saturates_outliers () =
  (* beyond the static calibration range the grid clips: this is the LLaMA
     failure mechanism of Table 2 *)
  let xs = [| 40.0; 0.5 |] in
  let q = Quant.quantize_value ~bits:8 ~scale:(Ibert.calibrated_absmax /. 127.0) xs.(0) in
  Alcotest.(check int) "clipped to int8 max" 127 q

let test_ibert_gelu_shape () =
  let xs = [| -3.0; -1.0; 0.0; 1.0; 3.0 |] in
  let g = Ibert.gelu_v xs in
  Alcotest.(check bool) "gelu(-3) ~ 0" true (Float.abs g.(0) < 0.05);
  Alcotest.(check bool) "gelu(3) ~ 3" true (Float.abs (g.(4) -. 3.0) < 0.2);
  Alcotest.(check bool) "gelu(0) ~ 0" true (Float.abs g.(2) < 0.05)

(* -------------------------------------------------------------- Gemmlowp *)

let test_gemmlowp_exp_accuracy () =
  let w =
    grid ~lo:(-15.0) ~hi:0.0 500 (fun x -> Float.abs (exp x -. Gemmlowp.exp_on_negative x))
  in
  Alcotest.(check bool) "fixed exp abs err < 1e-3" true (w < 1e-3)

let test_gemmlowp_exp_edges () =
  check_float "positive clamps to 1" 1.0 (Gemmlowp.exp_on_negative 0.5);
  check_float "flushes below -16" 0.0 (Gemmlowp.exp_on_negative (-20.0))

let test_gemmlowp_logistic () =
  let w =
    grid ~lo:(-8.0) ~hi:8.0 500 (fun x ->
        Float.abs ((1.0 /. (1.0 +. exp (-.x))) -. Gemmlowp.logistic x))
  in
  Alcotest.(check bool) "logistic abs err < 1e-2" true (w < 1e-2)

let test_gemmlowp_tanh_symmetry () =
  List.iter
    (fun x ->
      Alcotest.(check bool) "odd symmetry" true
        (Float.abs (Gemmlowp.tanh x +. Gemmlowp.tanh (-.x)) < 2e-3))
    [ 0.3; 1.1; 2.7; 5.0 ]

let test_gemmlowp_exp_v_max_one () =
  let es = Gemmlowp.exp_v [| 1.0; 3.0; -2.0 |] in
  Alcotest.(check bool) "max element is ~1" true (Float.abs (es.(1) -. 1.0) < 1e-3)

(* ---------------------------------------------------------------- Approx *)

let test_backend_names_unique () =
  let names = List.map (fun (b : Approx.t) -> b.Approx.name) Approx.all_backends in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_exact_softmax_primitive () =
  let es = Approx.exact.Approx.exp_shifted [| 1.0; 2.0; 3.0 |] in
  check_close 1e-12 "max maps to 1" 1.0 es.(2);
  check_close 1e-12 "ratio" (exp (-1.0)) es.(1)

let test_backend_softmax_agreement () =
  (* each backend's primitives normalize to a distribution close to exact *)
  let xs = [| 0.3; -1.2; 2.4; 0.0; 1.1 |] in
  let exact_es = Approx.exact.Approx.exp_shifted xs in
  let exact_sum = Array.fold_left ( +. ) 0.0 exact_es in
  List.iter
    (fun (b : Approx.t) ->
      let es = b.Approx.exp_shifted xs in
      let sum = Array.fold_left ( +. ) 0.0 es in
      Array.iteri
        (fun i e ->
          let p = b.Approx.div e sum and p_exact = exact_es.(i) /. exact_sum in
          Alcotest.(check bool)
            (Printf.sprintf "%s prob within 0.02" b.Approx.name)
            true
            (Float.abs (p -. p_exact) < 0.02))
        es)
    [ Approx.fp16_reference; Approx.ours_fp (); Approx.ours_int (); Approx.gemmlowp ]

let test_gelu_forms_agree () =
  (* tanh form (Table 1) and Phi form agree to ~1e-3 *)
  let w =
    grid ~lo:(-5.0) ~hi:5.0 300 (fun x ->
        Float.abs (Approx.gelu_tanh_exact x -. (x *. Lut.gauss_cdf_exact x)))
  in
  Alcotest.(check bool) "forms agree" true (w < 5e-3)

let test_ours_backends_close_to_exact () =
  let xs = Array.init 64 (fun i -> (float_of_int i /. 8.0) -. 4.0) in
  List.iter
    (fun (b : Approx.t) ->
      let g = b.Approx.gelu xs and g0 = Approx.exact.Approx.gelu xs in
      let s = b.Approx.silu xs and s0 = Approx.exact.Approx.silu xs in
      Array.iteri
        (fun i _ ->
          Alcotest.(check bool) (b.Approx.name ^ " gelu close") true
            (Float.abs (g.(i) -. g0.(i)) < 0.01);
          Alcotest.(check bool) (b.Approx.name ^ " silu close") true
            (Float.abs (s.(i) -. s0.(i)) < 0.01))
        xs)
    [ Approx.fp16_reference; Approx.ours_fp (); Approx.ours_int () ]

(* ------------------------------------------------------------------ bf16 *)

let test_bf16_known_encodings () =
  let f = Mf.bf16 in
  check_encodes f "1.0" 0x3F80 1.0;
  check_encodes f "-2.0" 0xC000 (-2.0);
  check_encodes f "max" 0x7F7F f.Mf.max_value;
  check_encodes f "inf" 0x7F80 infinity;
  check_encodes f "-inf" 0xFF80 neg_infinity;
  check_encodes f "nan" 0x7FC0 Float.nan;
  check_encodes f "+0" 0x0000 0.0

let test_bf16_decode_known () =
  let d code = Option.get (decode Mf.bf16 code) in
  check_float "decode 1.0" 1.0 (d 0x3F80);
  check_float "decode max" Mf.bf16.Mf.max_value (d 0x7F7F);
  check_float "decode smallest subnormal" (2.0 ** -133.0) (d 0x0001);
  check_float "min_positive_subnormal" (2.0 ** -133.0) (Mf.min_positive_subnormal Mf.bf16);
  Alcotest.(check bool) "decode inf" true (d 0x7F80 = infinity);
  Alcotest.(check bool) "decode nan" true (decode Mf.bf16 0x7FC0 = None)

let test_bf16_round_to_nearest_even () =
  (* 1 + 2^-8 sits exactly between 1.0 and 1 + 2^-7: ties to the even code *)
  let r = Mf.round Mf.bf16 in
  check_float "tie to even (down)" 1.0 (r (1.0 +. (2.0 ** -8.0)));
  check_float "tie to even (up)" (1.0 +. (2.0 ** -6.0)) (r (1.0 +. (3.0 *. (2.0 ** -8.0))));
  check_float "above tie" (1.0 +. (2.0 ** -7.0)) (r (1.0 +. (1.5 *. (2.0 ** -8.0))))

let test_bf16_overflow_and_max_ulp () =
  let r = Mf.round Mf.bf16 and max = Mf.bf16.Mf.max_value in
  let ulp = 2.0 ** 120.0 (* spacing at the top binade, 2^(127-7) *) in
  check_float "beyond max saturates" max (r 3.4e38);
  check_float "max stays" max (r max);
  check_float "max - 1 ulp stays" (max -. ulp) (r (max -. ulp));
  check_float "max + 1 ulp saturates" max (r (max +. ulp))

let test_bf16_subnormals () =
  let r = Mf.round Mf.bf16 and s = Mf.min_positive_subnormal Mf.bf16 in
  check_float "min subnormal exact" s (r s);
  check_float "half of it ties to zero" 0.0 (r (s /. 2.0));
  check_float "0.75 of it rounds up" s (r (0.75 *. s));
  check_float "negative subnormal" (-.s) (r (-.s))

let prop_bf16_roundtrip_idempotent =
  QCheck.Test.make ~name:"bf16 round is idempotent" ~count:1000
    (QCheck.float_range (-1e38) 1e38) (fun x ->
      let r = Mf.round Mf.bf16 x in
      Mf.round Mf.bf16 r = r)

let prop_bf16_half_ulp =
  QCheck.Test.make ~name:"bf16 error within half-ulp" ~count:1000
    (QCheck.float_range 1e-30 1e30) (fun x ->
      rel_err x (Mf.round Mf.bf16 x) <= (2.0 ** -8.0) +. 1e-12)

let prop_bf16_codes_roundtrip =
  QCheck.Test.make ~name:"bf16 all codes decode/encode stable" ~count:1
    QCheck.unit (fun () ->
      check_all_codes Mf.bf16;
      true)

(* ------------------------------------------------------------------- FP8 *)

let test_fp8_known_values () =
  check_float "e4m3 max" 448.0 Mf.e4m3.Mf.max_value;
  check_float "e5m2 max" 57344.0 Mf.e5m2.Mf.max_value;
  check_float "e4m3 min subnormal" (2.0 ** -9.0) (Mf.min_positive_subnormal Mf.e4m3);
  check_float "e5m2 min subnormal" (2.0 ** -16.0) (Mf.min_positive_subnormal Mf.e5m2);
  check_float "e4m3 1.0" 1.0 (Mf.round Mf.e4m3 1.0);
  check_float "e5m2 -2.0" (-2.0) (Mf.round Mf.e5m2 (-2.0))

let test_fp8_saturation () =
  (* E4M3 has no infinity: everything beyond max (infinity included)
     saturates; E5M2 keeps true infinities but saturates finite overflow *)
  check_float "e4m3 500 -> 448" 448.0 (Mf.round Mf.e4m3 500.0);
  check_float "e4m3 inf -> 448" 448.0 (Mf.round Mf.e4m3 infinity);
  check_float "e4m3 -inf -> -448" (-448.0) (Mf.round Mf.e4m3 neg_infinity);
  check_float "e5m2 1e6 -> 57344" 57344.0 (Mf.round Mf.e5m2 1e6);
  Alcotest.(check bool) "e5m2 inf stays inf" true (Mf.round Mf.e5m2 infinity = infinity);
  Alcotest.(check bool) "e5m2 -inf stays -inf" true
    (Mf.round Mf.e5m2 neg_infinity = neg_infinity);
  Alcotest.(check bool) "nan stays nan (both)" true
    (Float.is_nan (Mf.round Mf.e4m3 Float.nan) && Float.is_nan (Mf.round Mf.e5m2 Float.nan))

let test_fp8_max_pm_one_ulp () =
  List.iter
    (fun (f, ulp) ->
      let m = f.Mf.max_value in
      check_float (f.Mf.name ^ " max stays") m (Mf.round f m);
      check_float (f.Mf.name ^ " max - ulp stays") (m -. ulp) (Mf.round f (m -. ulp));
      check_float (f.Mf.name ^ " max + ulp saturates") m (Mf.round f (m +. ulp)))
    [ (Mf.e4m3, 32.0); (Mf.e5m2, 8192.0) ]

let test_fp8_subnormals () =
  List.iter
    (fun f ->
      let s = Mf.min_positive_subnormal f in
      check_float (f.Mf.name ^ " min subnormal exact") s (Mf.round f s);
      check_float (f.Mf.name ^ " half ties to zero") 0.0 (Mf.round f (s /. 2.0));
      check_float (f.Mf.name ^ " 0.75x rounds up") s (Mf.round f (0.75 *. s));
      check_float (f.Mf.name ^ " negative") (-.s) (Mf.round f (-.s)))
    [ Mf.e4m3; Mf.e5m2 ]

let test_fp8_all_codes_roundtrip () =
  (* all 256 codes of each layout: E5M2 has an IEEE NaN row, E4M3 only
     S.1111.111 *)
  check_all_codes Mf.e4m3;
  check_all_codes Mf.e5m2

let prop_fp8_idempotent (f : Mf.t) =
  QCheck.Test.make
    ~name:(Printf.sprintf "fp8 %s round is idempotent" f.name)
    ~count:1000
    (QCheck.float_range (-60000.0) 60000.0)
    (fun x ->
      let r = Mf.round f x in
      Mf.round f r = r)

let prop_fp8_nearest (f : Mf.t) =
  QCheck.Test.make
    ~name:(Printf.sprintf "fp8 %s rounds to nearest" f.name)
    ~count:1000
    (QCheck.float_range (-.f.max_value) f.max_value)
    (fun x ->
      (* the Numfmt quantum is the proven half-ulp bound at |x|'s binade *)
      let q = Numfmt.quantum (Numfmt.Float f) ~mag:(Float.max (Float.abs x) 1e-12) in
      Float.abs (Mf.round f x -. x) <= q)

(* ------------------------------------------------------------------- FP4 *)

let fp4 = Mf.round Mf.e2m1

let test_fp4_known_values () =
  check_float "max" 6.0 Mf.e2m1.Mf.max_value;
  check_float "min subnormal" 0.5 (Mf.min_positive_subnormal Mf.e2m1);
  check_float "1.0" 1.0 (fp4 1.0);
  check_float "-1.5" (-1.5) (fp4 (-1.5));
  check_float "0.5" 0.5 (fp4 0.5)

let test_fp4_saturation () =
  (* the encoding has no infinity and no NaN: overflow saturates to +/-6
     and NaN falls to zero *)
  check_float "7 -> 6" 6.0 (fp4 7.0);
  check_float "inf -> 6" 6.0 (fp4 infinity);
  check_float "-inf -> -6" (-6.0) (fp4 neg_infinity);
  check_float "-5 -> -4" (-4.0) (fp4 (-5.0));
  check_float "nan -> 0" 0.0 (fp4 Float.nan)

let test_fp4_round_to_nearest_even () =
  (* positive magnitudes are 0 0.5 1 1.5 2 3 4 6; ties go to the even
     mantissa code *)
  check_float "0.25 ties to 0" 0.0 (fp4 0.25);
  check_float "0.75 ties to 1" 1.0 (fp4 0.75);
  check_float "1.25 ties to 1" 1.0 (fp4 1.25);
  check_float "2.5 ties to 2" 2.0 (fp4 2.5);
  check_float "3.5 ties to 4" 4.0 (fp4 3.5);
  check_float "5 ties to 4" 4.0 (fp4 5.0)

let test_fp4_all_codes_roundtrip () =
  (* all 16 codes are finite, including the signed zero at 0x8 *)
  for code = 0 to 15 do
    Alcotest.(check bool)
      (Printf.sprintf "code %#x finite" code)
      true
      (Option.fold ~none:false ~some:Float.is_finite (decode Mf.e2m1 code))
  done;
  check_all_codes Mf.e2m1;
  Alcotest.(check bool) "0x8 is negative zero" true
    (is_neg_zero (Option.get (decode Mf.e2m1 0x8)))

let prop_fp4_idempotent =
  QCheck.Test.make ~name:"fp4 round is idempotent" ~count:1000
    (QCheck.float_range (-100.0) 100.0)
    (fun x ->
      let r = fp4 x in
      fp4 r = r)

let prop_fp4_nearest =
  QCheck.Test.make ~name:"fp4 rounds to nearest" ~count:1000
    (QCheck.float_range (-6.0) 6.0)
    (fun x ->
      let q = Numfmt.quantum (Numfmt.Float Mf.e2m1) ~mag:(Float.max (Float.abs x) 1e-12) in
      Float.abs (fp4 x -. x) <= q)

(* ---------------------------------------------------------------- Numfmt *)

let test_numfmt_names_distinct () =
  let names = List.map Numfmt.name Numfmt.catalogue in
  Alcotest.(check int) "no two catalogue formats share a name"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_numfmt_catalogue_cheapest_first () =
  let rec mono = function
    | a :: (b :: _ as tl) -> Numfmt.bits a <= Numfmt.bits b && mono tl
    | _ -> true
  in
  Alcotest.(check bool) "bits non-decreasing" true (mono Numfmt.catalogue)

let test_numfmt_rounds_once () =
  (* a hair above the midpoint between two codes rounds up; a first
     rounding through binary32 would land on the midpoint and tie down *)
  let q f x = Numfmt.quantize (Numfmt.Float f) x in
  check_float "fp16" (1.0 +. (2.0 ** -10.0)) (q Mf.fp16 (1.0 +. (2.0 ** -11.0) +. (2.0 ** -40.0)));
  check_float "bf16" (1.0 +. (2.0 ** -7.0)) (q Mf.bf16 (1.0 +. (2.0 ** -8.0) +. (2.0 ** -40.0)))

(* A value within a relative 2^-k, k in [20, 50], of the midpoint between
   two adjacent codes of [fmt], anywhere in its range: where a second
   rounding step or a wrong tie rule shows. *)
let near_midpoint fmt st =
  let mid =
    match fmt with
    | Numfmt.Fixed f ->
        let lo = Fixed_point.min_int_value f and hi = Fixed_point.max_int_value f in
        let n = lo + Random.State.full_int st (hi - lo) in
        Float.ldexp (float_of_int n +. 0.5) (-f.Fixed_point.frac_bits)
    | Numfmt.Float f ->
        let mb = f.Mf.mant_bits in
        let _, e_top = Float.frexp f.Mf.max_value in
        let emax = e_top - 1 in
        (* binade e in [emin - 1, emax]; emin - 1 stands for the subnormals *)
        let e = f.Mf.emin - 1 + Random.State.int st (emax - f.Mf.emin + 2) in
        let sign = if Random.State.bool st then 1.0 else -1.0 in
        if e < f.Mf.emin then
          sign *. Float.ldexp (float_of_int (Random.State.int st (1 lsl mb)) +. 0.5) (f.Mf.emin - mb)
        else
          (* the top binade stops at max_value *)
          let n =
            if e < emax then 1 lsl mb
            else int_of_float (Float.ldexp f.Mf.max_value (mb - emax)) - (1 lsl mb)
          in
          let m = Random.State.int st n in
          sign *. Float.ldexp (float_of_int ((1 lsl mb) + m) +. 0.5) (e - mb)
  in
  let k = 20 + Random.State.int st 31 in
  mid *. (1.0 +. Float.ldexp (float_of_int (Random.State.int st 3 - 1)) (-k))

let prop_numfmt_quantize_within_quantum =
  let n = List.length Numfmt.catalogue in
  let gen st =
    let i = Random.State.int st n in
    let fmt = List.nth Numfmt.catalogue i in
    (i, if Random.State.bool st then near_midpoint fmt st else Random.State.float st 4.0 -. 2.0)
  in
  QCheck.Test.make ~name:"numfmt quantize error within quantum" ~count:2000
    (QCheck.make
       ~print:(fun (i, x) -> Printf.sprintf "%s %h" (Numfmt.name (List.nth Numfmt.catalogue i)) x)
       gen)
    (fun (i, x) ->
      let fmt = List.nth Numfmt.catalogue i in
      let q = Numfmt.quantum fmt ~mag:(Float.max (Float.abs x) 1e-12) in
      Float.abs (Numfmt.quantize fmt x -. x) <= q)

let prop_numfmt_quantize_saturates =
  QCheck.Test.make ~name:"numfmt quantize saturates beyond max" ~count:200
    (QCheck.pair (QCheck.int_bound (List.length Numfmt.catalogue - 1))
       (QCheck.float_range 1.0 3.0))
    (fun (i, scale) ->
      let fmt = List.nth Numfmt.catalogue i in
      let v = Numfmt.quantize fmt (Numfmt.max_value fmt *. scale) in
      Float.is_finite v && Float.abs v <= Numfmt.max_value fmt)

let suite =
  [
    ( "fp16",
      [
        Alcotest.test_case "known encodings" `Quick test_fp16_known_encodings;
        Alcotest.test_case "decode known" `Quick test_fp16_decode_known;
        Alcotest.test_case "overflow saturates" `Quick test_fp16_overflow_saturates;
        Alcotest.test_case "round to nearest even" `Quick test_fp16_round_to_nearest_even;
        Alcotest.test_case "all 65536 codes roundtrip" `Quick test_fp16_all_codes_roundtrip;
        qtest prop_fp16_roundtrip_idempotent;
        qtest prop_fp16_relative_error;
        qtest prop_fp16_monotone;
      ] );
    ( "fixed-point",
      [
        Alcotest.test_case "format validation" `Quick test_fx_fmt_validation;
        Alcotest.test_case "roundtrip" `Quick test_fx_roundtrip;
        Alcotest.test_case "saturation" `Quick test_fx_saturation;
        Alcotest.test_case "overflow saturates" `Quick test_fx_overflow_saturates;
        Alcotest.test_case "multiplication" `Quick test_fx_mul;
        Alcotest.test_case "multiplication corners" `Quick test_fx_mul_corners;
        Alcotest.test_case "fp2fx split" `Quick test_fx_split;
        qtest prop_fx_split_reconstructs;
        qtest prop_fx_roundtrip_error;
        qtest prop_fx_of_float_saturating_roundtrip;
      ] );
    ( "quant",
      [
        Alcotest.test_case "roundtrip bound" `Quick test_quant_roundtrip_bound;
        Alcotest.test_case "zero tensor" `Quick test_quant_zero_tensor;
        Alcotest.test_case "saturating cast" `Quick test_saturating_cast;
        Alcotest.test_case "requantize" `Quick test_requantize;
      ] );
    ( "poly",
      [
        qtest prop_horner_matches_naive;
        qtest prop_complete_square_identity;
        Alcotest.test_case "exp coefficients" `Quick test_exp_coeffs;
        Alcotest.test_case "integer quadratic" `Quick test_eval_quadratic_int;
      ] );
    ( "taylor",
      [
        Alcotest.test_case "exp accuracy" `Quick test_taylor_exp_accuracy;
        Alcotest.test_case "exp edges" `Quick test_taylor_exp_edges;
        Alcotest.test_case "log accuracy" `Quick test_taylor_log_accuracy;
        Alcotest.test_case "log edges" `Quick test_taylor_log_edges;
        Alcotest.test_case "trig accuracy" `Quick test_taylor_trig_accuracy;
        Alcotest.test_case "isqrt" `Quick test_taylor_isqrt;
        Alcotest.test_case "sigmoid/tanh" `Quick test_taylor_sigmoid_tanh;
        Alcotest.test_case "order monotonicity" `Quick test_taylor_order_monotone;
        qtest prop_taylor_sigmoid_bounded;
      ] );
    ( "int-ops",
      [
        Alcotest.test_case "exp accuracy" `Quick test_int_exp_accuracy;
        Alcotest.test_case "log accuracy" `Quick test_int_log_accuracy;
        Alcotest.test_case "trig accuracy" `Quick test_int_trig_accuracy;
        Alcotest.test_case "reciprocal" `Quick test_int_reciprocal;
        Alcotest.test_case "isqrt & sigmoid" `Quick test_int_isqrt_sigmoid;
      ] );
    ( "lut",
      [
        Alcotest.test_case "validation" `Quick test_lut_validation;
        Alcotest.test_case "clamps" `Quick test_lut_clamps;
        Alcotest.test_case "linear interpolation" `Quick test_lut_linear_exact;
        Alcotest.test_case "gauss cdf table" `Quick test_lut_gauss_cdf;
        Alcotest.test_case "gauss cdf exact" `Quick test_gauss_cdf_exact;
      ] );
    ( "nli",
      [
        Alcotest.test_case "gelu table golden" `Quick test_nli_gelu_golden;
        Alcotest.test_case "scalar evaluators" `Quick test_nli_scalar_evaluators;
        qtest prop_nli_equalized;
        qtest prop_nli_budget_monotone;
        qtest prop_nli_exact_at_breakpoints;
      ] );
    ( "ibert",
      [
        Alcotest.test_case "i-exp accuracy" `Quick test_ibert_i_exp_accuracy;
        Alcotest.test_case "i-sqrt" `Quick test_ibert_i_sqrt;
        qtest prop_ibert_i_sqrt_random;
        Alcotest.test_case "exp_v in range" `Quick test_ibert_exp_v_in_range;
        Alcotest.test_case "outliers saturate" `Quick test_ibert_saturates_outliers;
        Alcotest.test_case "gelu shape" `Quick test_ibert_gelu_shape;
      ] );
    ( "gemmlowp",
      [
        Alcotest.test_case "exp accuracy" `Quick test_gemmlowp_exp_accuracy;
        Alcotest.test_case "exp edges" `Quick test_gemmlowp_exp_edges;
        Alcotest.test_case "logistic" `Quick test_gemmlowp_logistic;
        Alcotest.test_case "tanh symmetry" `Quick test_gemmlowp_tanh_symmetry;
        Alcotest.test_case "exp_v max one" `Quick test_gemmlowp_exp_v_max_one;
      ] );
    ( "approx",
      [
        Alcotest.test_case "backend names unique" `Quick test_backend_names_unique;
        Alcotest.test_case "exact softmax primitive" `Quick test_exact_softmax_primitive;
        Alcotest.test_case "backend softmax agreement" `Quick test_backend_softmax_agreement;
        Alcotest.test_case "gelu forms agree" `Quick test_gelu_forms_agree;
        Alcotest.test_case "ours close to exact" `Quick test_ours_backends_close_to_exact;
      ] );
    ( "bfloat16",
      [
        Alcotest.test_case "known encodings" `Quick test_bf16_known_encodings;
        Alcotest.test_case "decode known" `Quick test_bf16_decode_known;
        Alcotest.test_case "round to nearest even" `Quick test_bf16_round_to_nearest_even;
        Alcotest.test_case "overflow and max ulp" `Quick test_bf16_overflow_and_max_ulp;
        Alcotest.test_case "subnormals" `Quick test_bf16_subnormals;
        qtest prop_bf16_roundtrip_idempotent;
        qtest prop_bf16_half_ulp;
        qtest prop_bf16_codes_roundtrip;
      ] );
    ( "fp8",
      [
        Alcotest.test_case "known values" `Quick test_fp8_known_values;
        Alcotest.test_case "saturation" `Quick test_fp8_saturation;
        Alcotest.test_case "max +/- one ulp" `Quick test_fp8_max_pm_one_ulp;
        Alcotest.test_case "subnormals" `Quick test_fp8_subnormals;
        Alcotest.test_case "all 256 codes roundtrip" `Quick test_fp8_all_codes_roundtrip;
        qtest (prop_fp8_idempotent Mf.e4m3);
        qtest (prop_fp8_idempotent Mf.e5m2);
        qtest (prop_fp8_nearest Mf.e4m3);
        qtest (prop_fp8_nearest Mf.e5m2);
      ] );
    ( "fp4",
      [
        Alcotest.test_case "known values" `Quick test_fp4_known_values;
        Alcotest.test_case "saturation" `Quick test_fp4_saturation;
        Alcotest.test_case "round to nearest even" `Quick
          test_fp4_round_to_nearest_even;
        Alcotest.test_case "all 16 codes roundtrip" `Quick
          test_fp4_all_codes_roundtrip;
        qtest prop_fp4_idempotent;
        qtest prop_fp4_nearest;
      ] );
    ( "minifloat",
      [
        Alcotest.test_case "midpoints tie to even" `Quick test_minifloat_midpoints;
        Alcotest.test_case "inf, nan, signed zero, overflow" `Quick
          test_minifloat_special_values;
        qtest prop_fp32_is_the_cast;
      ] );
    ( "numfmt",
      [
        Alcotest.test_case "catalogue names distinct" `Quick test_numfmt_names_distinct;
        Alcotest.test_case "catalogue cheapest first" `Quick
          test_numfmt_catalogue_cheapest_first;
        Alcotest.test_case "quantize rounds once" `Quick test_numfmt_rounds_once;
        qtest prop_numfmt_quantize_within_quantum;
        qtest prop_numfmt_quantize_saturates;
      ] );
  ]
