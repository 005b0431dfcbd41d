(* Non-uniform linear interpolation (NLI) — the second approximation
   backend.  Instead of Taylor-expanding an operator around a reduced
   range, approximate it directly with an error-equalized piecewise-linear
   interpolant: place breakpoints densely where the function curves and
   sparsely where it is flat, so every segment contributes about the same
   worst-case error and the table meets a target error with far fewer
   ROM words than a uniform grid.

   Fitting is a binary search on the per-segment error threshold eps
   wrapped around a greedy left-to-right cover: starting from the range's
   left edge, extend the current segment sample by sample until the chord
   deviates from the function by more than eps, cut, repeat.  The greedy
   cover is maximal (each segment stops at the first infeasible
   extension), so the number of segments needed is monotone nonincreasing
   in eps and the bisection converges to the smallest threshold the
   segment budget can honor — the error-equalization property: every
   interior cut is witnessed by a sample where one more step would exceed
   the threshold every other segment also honors. *)

type fit = {
  table : Lut.t;
  max_err : float;
  target_err : float;
  segments : int;
}

let fit ?(segments = 64) ?(grid = 1024) ~lo ~hi f =
  if segments < 1 then invalid_arg "Nli.fit: segments < 1";
  if grid < 2 then invalid_arg "Nli.fit: grid < 2";
  if not (lo < hi) then invalid_arg "Nli.fit: empty range";
  let n = grid + 1 in
  let xs = Array.init n (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int grid)) in
  (* pin the endpoints exactly: the table's clamp bounds must be lo/hi *)
  xs.(0) <- lo;
  xs.(n - 1) <- hi;
  let ys = Array.map f xs in
  if Array.exists (fun y -> not (Float.is_finite y)) ys then
    invalid_arg "Nli.fit: function not finite on the range";
  (* max |f - chord(i,j)| over the samples strictly between i and j *)
  let chord_err i j =
    let xi = xs.(i) and yi = ys.(i) in
    let slope = (ys.(j) -. yi) /. (xs.(j) -. xi) in
    let m = ref 0.0 in
    for k = i + 1 to j - 1 do
      let d = Float.abs (ys.(k) -. (yi +. (slope *. (xs.(k) -. xi)))) in
      if d > !m then m := d
    done;
    !m
  in
  (* greedy maximal cover at threshold eps; returns the cut indices
     (ascending, starting 0, ending n-1) *)
  let cover eps =
    let cuts = ref [ 0 ] in
    let i = ref 0 in
    while !i < n - 1 do
      let j = ref (!i + 1) in
      while !j + 1 <= n - 1 && chord_err !i (!j + 1) <= eps do
        incr j
      done;
      cuts := !j :: !cuts;
      i := !j
    done;
    List.rev !cuts
  in
  let needed eps = List.length (cover eps) - 1 in
  let eps_hi = Float.max (chord_err 0 (n - 1)) 1e-300 in
  let eps =
    if needed 0.0 <= segments then 0.0
    else begin
      (* invariant: [bad] needs more than the budget, [good] fits it *)
      let bad = ref 0.0 and good = ref eps_hi in
      for _ = 1 to 60 do
        let mid = 0.5 *. (!bad +. !good) in
        if needed mid <= segments then good := mid else bad := mid
      done;
      !good
    end
  in
  let cuts = Array.of_list (cover eps) in
  let breakpoints = Array.map (fun i -> xs.(i)) cuts in
  let table = Lut.create_nonuniform ~breakpoints f in
  (* measure the shipped table (FP16-rounded node values included) against
     the reference on a grid 4x denser than the fitting grid *)
  let m = 4 * grid in
  let max_err = ref 0.0 in
  for k = 0 to m do
    let x = lo +. ((hi -. lo) *. float_of_int k /. float_of_int m) in
    let d = Float.abs (Lut.eval table x -. f x) in
    if d > !max_err then max_err := d
  done;
  {
    table;
    max_err = !max_err;
    target_err = eps;
    segments = Array.length breakpoints - 1;
  }

(* maximum over segments of the shipped table's deviation from [f],
   reported per segment — the equalization witness the tests check *)
let per_segment_errors fit f =
  let bps = Lut.breakpoints fit.table in
  let nseg = Array.length bps - 1 in
  Array.init nseg (fun s ->
      let a = bps.(s) and b = bps.(s + 1) in
      let m = ref 0.0 in
      for k = 0 to 64 do
        let x = a +. ((b -. a) *. float_of_int k /. 64.0) in
        let d = Float.abs (Lut.eval fit.table x -. f x) in
        if d > !m then m := d
      done;
      !m)

(* ------------------------------------------------------ standard tables *)

let silu_exact x = x /. (1.0 +. Stdlib.exp (-.x))

let gelu_exact x = x *. Lut.gauss_cdf_exact x

let tanh_exact = Stdlib.tanh

(* The shipped operator tables.  Ranges follow the operators' reduced
   domains: the softmax numerator argument is max-shifted (<= 0, and
   exp(-20) is below FP16 resolution); RoPE angles arrive range-reduced
   into [-pi/2, pi/2]; division and inverse square root are frexp
   range-reduced onto one (respectively two) binades, so one small table
   covers every input.  Budgets are deliberately small — the point of
   non-uniform placement is meeting FP16-level error with tens of
   segments where the uniform CoT table spends 1024 entries. *)
let standard_specs =
  [
    ("nli.exp", 64, -20.0, 0.0, Stdlib.exp);
    ("nli.gelu", 64, -8.0, 8.0, gelu_exact);
    ("nli.silu", 64, -8.0, 8.0, silu_exact);
    ("nli.sigmoid", 64, -16.0, 16.0, fun x -> 1.0 /. (1.0 +. Stdlib.exp (-.x)));
    ("nli.sin", 32, -.(Float.pi /. 2.0), Float.pi /. 2.0, Stdlib.sin);
    ("nli.cos", 32, -.(Float.pi /. 2.0), Float.pi /. 2.0, Stdlib.cos);
    ("nli.tanh", 64, -4.0, 4.0, tanh_exact);
    ("nli.recip", 32, 1.0, 2.0, fun m -> 1.0 /. m);
    ("nli.isqrt", 32, 1.0, 4.0, fun m -> 1.0 /. sqrt m);
  ]

(* eagerly fitted at module init (cheap: a few hundred thousand float ops
   per table) — forcing a pending lazy concurrently from several domains
   is unsafe in OCaml 5 and backends evaluate on the pool *)
let standard =
  List.map
    (fun (name, segments, lo, hi, f) -> (name, fit ~segments ~lo ~hi f))
    standard_specs

let fit_of_name name = List.assoc_opt name standard
let table_of_name name = Option.map (fun f -> f.table) (fit_of_name name)

(* ------------------------------------------------- range-reduced scalars *)

let table name =
  match table_of_name name with
  | Some t -> t
  | None -> invalid_arg ("Nli.table: " ^ name)

let exp_table = table "nli.exp"
let gelu_table = table "nli.gelu"
let silu_table = table "nli.silu"
let sigmoid_table = table "nli.sigmoid"
let sin_table = table "nli.sin"
let cos_table = table "nli.cos"
let tanh_table = table "nli.tanh"
let recip_table = table "nli.recip"
let isqrt_table = table "nli.isqrt"

let exp_neg d = Lut.eval exp_table d
let gelu x = Lut.eval gelu_table x
let silu x = Lut.eval silu_table x
let sigmoid x = Lut.eval sigmoid_table x
let tanh x = Lut.eval tanh_table x

(* trigonometry: fold into [-pi/2, pi/2] (sin(pi - r) = sin r), then table *)
let sin x =
  if not (Float.is_finite x) then Float.nan
  else begin
    let two_pi = 2.0 *. Float.pi in
    let r = Float.rem x two_pi in
    let r = if r > Float.pi then r -. two_pi else if r < -.Float.pi then r +. two_pi else r in
    let r =
      if r > Float.pi /. 2.0 then Float.pi -. r
      else if r < -.(Float.pi /. 2.0) then -.Float.pi -. r
      else r
    in
    Lut.eval sin_table r
  end

(* cosine is even: fold into [0, pi], then reflect the upper quadrant *)
let cos x =
  if not (Float.is_finite x) then Float.nan
  else begin
    let two_pi = 2.0 *. Float.pi in
    let r = Float.abs (Float.rem x two_pi) in
    let r = if r > Float.pi then two_pi -. r else r in
    if r <= Float.pi /. 2.0 then Lut.eval cos_table r
    else -.Lut.eval cos_table (Float.pi -. r)
  end

(* division: b = m * 2^e with m in [0.5, 1) via frexp, so
   1/b = recip(2m) * 2^(1-e) with 2m in [1, 2) — one binade of table *)
let recip b =
  if b = 0.0 || not (Float.is_finite b) then 1.0 /. b
  else
    let m, e = Float.frexp (Float.abs b) in
    let r = Float.ldexp (Lut.eval recip_table (2.0 *. m)) (1 - e) in
    Float.copy_sign r b

let div a b = a *. recip b

(* inverse square root: x = u * 4^p with u in [1, 4), so
   isqrt x = isqrt(u) * 2^(-p); p from the frexp exponent's parity *)
let isqrt x =
  if x <= 0.0 || not (Float.is_finite x) then 1.0 /. sqrt x
  else
    let m, e = Float.frexp x in
    (* x = (2m) * 2^(e-1) with 2m in [1, 2) *)
    let e' = e - 1 in
    let u, p =
      if e' land 1 = 0 then (2.0 *. m, e' asr 1)
      else (4.0 *. m, (e' - 1) asr 1)
    in
    Float.ldexp (Lut.eval isqrt_table u) (-p)
