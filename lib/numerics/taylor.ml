type config = { order : int }

let default = { order = 6 }
let r32 = Minifloat.round32
let log2_e = 1.4426950408889634
let ln_2 = 0.6931471805599453

let exp ?(cfg = default) x =
  if Float.is_nan x then nan
  else if x = infinity then infinity
  else if x = neg_infinity then 0.0
  else
    let t = r32 (log2_e *. x) in
    (* FP2FX split: t = i + f, f in [0,1) *)
    let i, f = Fixed_point.split t in
    (* 2^i is exact exponent manipulation; clamp to the FP32 exponent range *)
    if i > 128 then infinity
    else if i < -150 then 0.0
    else
      let pow2_i = Float.ldexp 1.0 i in
      let pow2_f = r32 (Poly.horner (Poly.exp_taylor_coeffs ~order:cfg.order) f) in
      r32 (pow2_i *. pow2_f)

let log ?(cfg = default) x =
  if Float.is_nan x || x < 0.0 then nan
  else if x = 0.0 then neg_infinity
  else if x = infinity then infinity
  else
    (* frexp yields m' in [0.5, 1); renormalize to x = 2^e * (1 + m), m in [0,1) *)
    let m', e' = Float.frexp x in
    let m = (2.0 *. m') -. 1.0 in
    let e = e' - 1 in
    (* the alternating series converges slowly near m = 1; fold m > sqrt2 - 1
       into the next binade so the polynomial argument stays small, which is
       the same normalization the FP2FX datapath applies *)
    let m, e =
      if m > 0.4142135623730951 then (((1.0 +. m) /. 2.0) -. 1.0, e + 1) else (m, e)
    in
    let log1p_m = r32 (Poly.horner (Poly.log1p_taylor_coeffs ~order:cfg.order) m) in
    r32 ((float_of_int e *. ln_2) +. log1p_m)

(* Range-reduce an angle into [-pi/2, pi/2] together with the sign flip that
   keeps sin(t) = sin(x) (Table 3). *)
let reduce_half_pi x =
  let two_pi = 2.0 *. Float.pi in
  let r = Float.rem x two_pi in
  let r = if r > Float.pi then r -. two_pi else if r < -.Float.pi then r +. two_pi else r in
  if r > Float.pi /. 2.0 then (Float.pi -. r, 1.0)
  else if r < -.(Float.pi /. 2.0) then (-.Float.pi -. r, 1.0)
  else (r, 0.0)

let sin ?(cfg = default) x =
  if Float.is_nan x || Float.abs x = infinity then nan
  else
    let t, _ = reduce_half_pi x in
    r32 (Poly.sin_taylor ~order:cfg.order t)

let cos ?(cfg = default) x =
  if Float.is_nan x || Float.abs x = infinity then nan
  else
    (* cos(x) = sin(x + pi/2); reuse the sin reduction but track the quadrant
       directly: reduce to [-pi/2, pi/2] with cos(t) = +-cos(x) *)
    let two_pi = 2.0 *. Float.pi in
    let r = Float.rem x two_pi in
    let r = if r > Float.pi then r -. two_pi else if r < -.Float.pi then r +. two_pi else r in
    let t, sign =
      if r > Float.pi /. 2.0 then (Float.pi -. r, -1.0)
      else if r < -.(Float.pi /. 2.0) then (-.Float.pi -. r, -1.0)
      else (r, 1.0)
    in
    r32 (sign *. Poly.cos_taylor ~order:cfg.order t)

let isqrt ?(iterations = 3) x =
  if x <= 0.0 || Float.is_nan x then nan
  else
    (* seed by halving the exponent, then Newton: y <- y (1.5 - x/2 y^2) *)
    let m, e = Float.frexp x in
    let k = e / 2 in
    let r = e - (2 * k) (* -1, 0 or 1 *) in
    let seed = Float.ldexp (1.0 /. sqrt m) (-k) in
    let seed =
      if r = 1 then seed /. sqrt 2.0 else if r = -1 then seed *. sqrt 2.0 else seed
    in
    let y = ref seed in
    for _ = 1 to iterations do
      y := r32 (!y *. (1.5 -. (0.5 *. x *. !y *. !y)))
    done;
    !y

let div a b = r32 (a /. b)

let sigmoid ?(cfg = default) x =
  (* guard the exp against overflow for very negative x *)
  if x >= 0.0 then div 1.0 (r32 (1.0 +. exp ~cfg (-.x)))
  else
    let e = exp ~cfg x in
    div e (r32 (1.0 +. e))

let tanh ?(cfg = default) x =
  if x > 15.0 then 1.0
  else if x < -15.0 then -1.0
  else
    let e2 = exp ~cfg (2.0 *. x) in
    div (r32 (e2 -. 1.0)) (r32 (e2 +. 1.0))
