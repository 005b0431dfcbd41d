(* Two grid shapes share one value array and one eval contract.  The uniform
   arm keeps the historical arithmetic bit-for-bit (position = (x-lo)/step,
   truncate, interpolate) — the gauss_cdf goldens pin it.  The non-uniform
   arm stores explicit breakpoints (the NLI segment tables) and classifies
   by binary search; the interpolation formula is the same shape, so a
   query landing exactly on breakpoint i returns values.(i) unchanged. *)
type grid =
  | Uniform of { lo : float; hi : float; step : float }
  | Breakpoints of float array

type t = { grid : grid; values : float array }

let create ?(entries = 1024) ~lo ~hi f =
  if entries < 2 then invalid_arg "Lut.create: entries < 2";
  if lo >= hi then invalid_arg "Lut.create: empty range";
  let step = (hi -. lo) /. float_of_int (entries - 1) in
  let values =
    Array.init entries (fun i -> Minifloat.round Minifloat.fp16 (f (lo +. (float_of_int i *. step))))
  in
  { grid = Uniform { lo; hi; step }; values }

let check_breakpoints bps =
  let n = Array.length bps in
  if n < 2 then invalid_arg "Lut: fewer than 2 breakpoints";
  for i = 0 to n - 2 do
    if not (bps.(i) < bps.(i + 1)) then
      invalid_arg "Lut: breakpoints not strictly increasing"
  done

let create_nonuniform ~breakpoints f =
  check_breakpoints breakpoints;
  {
    grid = Breakpoints (Array.copy breakpoints);
    values = Array.map (fun x -> Minifloat.round Minifloat.fp16 (f x)) breakpoints;
  }

let lo t =
  match t.grid with Uniform u -> u.lo | Breakpoints b -> b.(0)

let hi t =
  match t.grid with
  | Uniform u -> u.hi
  | Breakpoints b -> b.(Array.length b - 1)

let eval t x =
  let n = Array.length t.values in
  match t.grid with
  | Uniform u ->
      if x <= u.lo then t.values.(0)
      else if x >= u.hi then t.values.(n - 1)
      else
        let pos = (x -. u.lo) /. u.step in
        let i = int_of_float pos in
        let i = Stdlib.min i (n - 2) in
        let frac = pos -. float_of_int i in
        t.values.(i) +. (frac *. (t.values.(i + 1) -. t.values.(i)))
  | Breakpoints b ->
      if x <= b.(0) then t.values.(0)
      else if x >= b.(n - 1) then t.values.(n - 1)
      else begin
        (* largest i with b.(i) <= x; x < b.(n-1) keeps i <= n-2 *)
        let lo_i = ref 0 and hi_i = ref (n - 1) in
        while !hi_i - !lo_i > 1 do
          let mid = (!lo_i + !hi_i) / 2 in
          if b.(mid) <= x then lo_i := mid else hi_i := mid
        done;
        let i = !lo_i in
        let frac = (x -. b.(i)) /. (b.(i + 1) -. b.(i)) in
        t.values.(i) +. (frac *. (t.values.(i + 1) -. t.values.(i)))
      end

let entries t = Array.length t.values

(* ROM words are FP16: a uniform table stores one value per entry (the grid
   is implicit in two registers); a non-uniform table also stores its
   breakpoint per entry — the segment-classify comparators read them. *)
let size_bytes t =
  match t.grid with
  | Uniform _ -> 2 * entries t
  | Breakpoints _ -> 4 * entries t

let breakpoints t =
  match t.grid with
  | Uniform u ->
      Array.init (entries t) (fun i -> u.lo +. (float_of_int i *. u.step))
  | Breakpoints b -> Array.copy b

let is_uniform t = match t.grid with Uniform _ -> true | Breakpoints _ -> false

(* Sound range of the clamped interpolant over [a, b]: the endpoint
   evaluations plus every stored node strictly inside — a PWL function
   attains its extrema at nodes or at the clamped query endpoints.  Equals
   the endpoint scan for monotone tables. *)
let interval t a b =
  let a = Float.min a b and b = Float.max a b in
  let va = eval t a and vb = eval t b in
  let mn = ref (Float.min va vb) and mx = ref (Float.max va vb) in
  let bps = match t.grid with Uniform _ -> breakpoints t | Breakpoints bp -> bp in
  Array.iteri
    (fun i x ->
      if x > a && x < b then begin
        mn := Float.min !mn t.values.(i);
        mx := Float.max !mx t.values.(i)
      end)
    bps;
  (!mn, !mx)

(* Lipschitz constant of the clamped interpolant: max |segment slope|. *)
let max_abs_slope t =
  let n = entries t in
  let bps = match t.grid with Uniform _ -> breakpoints t | Breakpoints bp -> bp in
  let m = ref 0.0 in
  for i = 0 to n - 2 do
    let s =
      Float.abs ((t.values.(i + 1) -. t.values.(i)) /. (bps.(i + 1) -. bps.(i)))
    in
    if s > !m then m := s
  done;
  !m

(* erf via the maximal-accuracy rational approximation (Abramowitz & Stegun
   7.1.26 has only ~1.5e-7 absolute error; we refine by one step of the
   series when |x| is small where the rational form is weakest). *)
let erf x =
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  if x < 1e-8 then sign *. (2.0 /. sqrt Float.pi *. x)
  else
    let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
    let y =
      1.0
      -. (((((1.061405429 *. t) -. 1.453152027) *. t +. 1.421413741) *. t
           -. 0.284496736) *. t +. 0.254829592)
         *. t *. exp (-.(x *. x))
    in
    sign *. y

let gauss_cdf_exact x = 0.5 *. (1.0 +. erf (x /. sqrt 2.0))
(* eagerly built: concurrently forcing a pending lazy from several domains
   is unsafe in OCaml 5, and surrogate attention evaluates backends from
   every pool worker *)
let gauss_cdf = Lazy.from_val (create ~entries:1024 ~lo:(-6.0) ~hi:6.0 gauss_cdf_exact)
