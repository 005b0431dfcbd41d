module Op = Picachu_ir.Op
module Instr = Picachu_ir.Instr
module Kernel = Picachu_ir.Kernel
module Numfmt = Picachu_numerics.Numfmt
module Lut_catalog = Picachu_numerics.Lut_catalog

(* Static precision analysis: abstractly execute a kernel over pairs
   (affine form of the ideal value, error radius), where "ideal" means the
   same dataflow evaluated in exact real arithmetic on the same (already
   format-quantized) inputs, and the error radius bounds |finite - ideal|
   for the finite machine that rounds every computed data-path result
   through the format under test.  The affine component supplies the value
   magnitudes the error transfer functions need (and tracks correlations
   the interval domain cannot, e.g. x*x >= 0); the error component
   composes per-op propagation rules with one fresh rounding quantum per
   quantized op.  Constants live in wide configuration registers and
   scalar live-ins are host-side exact; both carry zero error.  The result
   is a guaranteed per-instruction bound with no execution involved —
   soundness is separately enforced by the qcheck harness in the test
   suite, which compares bit-accurate runs against the claimed bounds. *)

(* ------------------------------------------------- quantization contract *)

(* Which instruction results the finite machine rounds through the lane
   format: every computed data-path value.  Pass-through ops (phi, select,
   max/min via their Bin arm below, store, load) hand on an operand that is
   already in format; cmp/br are control bits; constants are configuration
   registers; scalar inputs arrive on the host path. *)
let quantized (op : Op.t) =
  match op with
  | Op.Bin _ | Op.Un _ | Op.Fp2fx_int | Op.Fp2fx_frac | Op.Shift_exp
  | Op.Lut _ ->
      true
  | Op.Const _ | Op.Input _ | Op.Cmp _ | Op.Select | Op.Phi | Op.Load _
  | Op.Store _ | Op.Br | Op.Fused _ ->
      false

(* Does rounding provably leave this op's exact result unchanged, given
   in-format in-range operands?  Copies and sign flips always; on the
   fixed-point grid, sums, floors and the FP2FX split are closed too. *)
let requantize_exact fmt (op : Op.t) =
  match op with
  | Op.Bin (Op.Max | Op.Min) | Op.Un (Op.Neg | Op.Abs) -> true
  | Op.Bin (Op.Add | Op.Sub) | Op.Un Op.Floor | Op.Fp2fx_int | Op.Fp2fx_frac
    ->
      Numfmt.exact_sums fmt
  | _ -> false

let rounder fmt : Kernel.loop -> Instr.t -> float -> float =
 fun loop ->
  let skel = Absint.skeleton_ids (Array.of_list loop.Kernel.body) in
  fun (i : Instr.t) v ->
    if quantized i.Instr.op && not (List.mem i.Instr.id skel) then
      Numfmt.quantize fmt v
    else v

(* --------------------------------------------------------- abstract value *)

(* per-iteration value: affine form of the ideal + error radius *)
type aval = { av : Affine.t; err : float }

(* per-instruction joined state across iterations *)
type cell = { lo : float; hi : float; err : float }

let bot = { av = Affine.top; err = infinity }

let cell_of_aval (v : aval) =
  let lo, hi = Affine.interval v.av in
  { lo; hi; err = v.err }

let ideal_mag av =
  let lo, hi = Affine.interval av in
  Float.max (Float.abs lo) (Float.abs hi)

(* how far a divisor interval provably stays from zero *)
let zero_distance lo hi = if lo > 0.0 then lo else if hi < 0.0 then -.hi else 0.0

(* outward slack on magnitude/bound comparisons: the analysis itself runs
   in float64 and must not mis-prove by its own last-ulp rounding *)
let slack = 1e-9

let inflate x = if Float.is_finite x then x *. (1.0 +. slack) else x

(* ------------------------------------------------------------ op transfer *)

(* 2^round(e) with the exponent clamped to the FP32 field the FP2FX unit
   produces *)
let shift_exp_pow elo ehi =
  let clamp v = Float.max (-150.0) (Float.min 129.0 v) in
  ( Float.ldexp 1.0 (int_of_float (Float.floor (clamp (elo -. 0.5)))),
    Float.ldexp 1.0 (int_of_float (Float.ceil (clamp (ehi +. 0.5)))) )

(* exact-arithmetic binop with error propagation: shared by the data path
   (which then rounds through [finish]) and the host-side scalar glue *)
let binop cx (op : Op.binop) a b =
  match op with
  | Op.Add -> { av = Affine.add a.av b.av; err = a.err +. b.err }
  | Op.Sub -> { av = Affine.sub a.av b.av; err = a.err +. b.err }
  | Op.Mul ->
      let am = ideal_mag a.av and bm = ideal_mag b.av in
      {
        av = Affine.mul a.av b.av;
        err = (am *. b.err) +. (bm *. a.err) +. (a.err *. b.err);
      }
  | Op.Div ->
      let blo, bhi = Affine.interval b.av in
      let bmin = zero_distance blo bhi in
      let bmin_fin = bmin -. b.err in
      let av = Affine.div cx a.av b.av in
      if bmin_fin <= 0.0 then { av; err = infinity }
      else
        let am = ideal_mag a.av and bm = ideal_mag b.av in
        { av; err = ((bm *. a.err) +. (am *. b.err)) /. (bmin_fin *. bmin) }
  | Op.Max | Op.Min ->
      let alo, ahi = Affine.interval a.av and blo, bhi = Affine.interval b.av in
      (* domination: when one operand provably wins in both the ideal and
         the finite run, the result is a copy of it *)
      let pick_a, pick_b =
        match op with
        | Op.Max ->
            ( alo > bhi && alo -. a.err > bhi +. b.err,
              blo > ahi && blo -. b.err > ahi +. a.err )
        | _ ->
            ( ahi < blo && ahi +. a.err < blo -. b.err,
              bhi < alo && bhi +. b.err < alo -. a.err )
      in
      if pick_a then a
      else if pick_b then b
      else
        let joiner = match op with Op.Max -> Affine.max_ | _ -> Affine.min_ in
        { av = joiner cx a.av b.av; err = Float.max a.err b.err }

let isqrt cx (a : aval) =
  let lo, hi = Affine.interval a.av in
  let av =
    if hi <= 0.0 then Affine.top
    else
      let h = if lo > 0.0 then 1.0 /. sqrt lo else infinity in
      Affine.of_interval cx (1.0 /. sqrt hi) h
  in
  let err =
    let lmin = lo -. a.err in
    if lmin > 0.0 then a.err /. (2.0 *. (lmin *. sqrt lmin)) else infinity
  in
  { av; err }

(* error of the rounding step appended to a quantized op: zero when the op
   is grid-exact, one quantum at the finite value's magnitude otherwise;
   infinite (no proof) when the finite value may leave the format *)
let finish fmt op v =
  if not (quantized op) then v
  else
    let m = ideal_mag v.av +. v.err in
    if not (Float.is_finite m) || inflate m > Numfmt.max_value fmt then
      { v with err = infinity }
    else
      let rnd =
        if requantize_exact fmt op then 0.0 else Numfmt.quantum fmt ~mag:m
      in
      { v with err = v.err +. rnd }

type ctx = { cx : Affine.ctx; fmt : Numfmt.t }

let transfer { cx; fmt } ~(body : Instr.t array) ~(value : int -> aval)
    (i : Instr.t) ~(arg : int -> aval) =
  let v =
    match i.Instr.op with
    | Op.Cmp _ ->
        (* a predicate bit on the control path; Select accounts for the
           flip risk from its own operands *)
        { av = Affine.of_interval cx 0.0 1.0; err = 0.0 }
    | Op.Select ->
        let t = arg 1 and f = arg 2 in
        let flip_possible =
          match List.nth_opt i.Instr.args 0 with
          | Some c when c >= 0 && c < Array.length body -> (
              match body.(c).Instr.op with
              | Op.Cmp _ ->
                  List.exists (fun a -> (value a).err <> 0.0) body.(c).Instr.args
              | _ -> (value c).err <> 0.0)
          | _ -> true
        in
        let err =
          if not flip_possible then Float.max t.err f.err
          else
            (* the two runs may take different branches: pay the distance
               between the branch values on top *)
            let tlo, thi = Affine.interval t.av and flo, fhi = Affine.interval f.av in
            let w = Float.max thi fhi -. Float.min tlo flo in
            Float.max t.err f.err +. w
        in
        { av = Affine.join cx t.av f.av; err }
    | Op.Bin op -> binop cx op (arg 0) (arg 1)
    | Op.Un Op.Neg -> { av = Affine.neg (arg 0).av; err = (arg 0).err }
    | Op.Un Op.Abs -> { av = Affine.abs cx (arg 0).av; err = (arg 0).err }
    | Op.Un Op.Floor | Op.Fp2fx_int ->
        let a = arg 0 in
        let err = if a.err = 0.0 then 0.0 else a.err +. 1.0 in
        { av = Affine.floor cx a.av; err }
    | Op.Fp2fx_frac ->
        let a = arg 0 in
        (* both fractional parts live in [0, 1), so the split discontinuity
           costs at most 1 *)
        let err = if a.err = 0.0 then 0.0 else Float.min (a.err +. 1.0) 1.0 in
        { av = Affine.of_interval cx 0.0 1.0; err }
    | Op.Shift_exp ->
        let a = arg 0 and e = arg 1 in
        let alo, ahi = Affine.interval a.av and elo, ehi = Affine.interval e.av in
        let p_lo, p_hi = shift_exp_pow elo ehi in
        let av =
          if Float.is_finite elo && Float.is_finite ehi then
            let cands = [ alo *. p_lo; alo *. p_hi; ahi *. p_lo; ahi *. p_hi ] in
            Affine.of_interval cx
              (List.fold_left Float.min infinity cands)
              (List.fold_left Float.max neg_infinity cands)
          else Affine.top
        in
        let err =
          if Float.is_finite e.err && Float.is_finite ehi then
            let k =
              if e.err = 0.0 then 0
              else Stdlib.min 64 (int_of_float (Float.floor e.err) + 1)
            in
            (a.err *. Float.ldexp p_hi k)
            +. (ideal_mag a.av *. p_hi *. (Float.ldexp 1.0 k -. 1.0))
          else infinity
        in
        { av; err }
    | Op.Lut name ->
        let a = arg 0 in
        let alo, ahi = Affine.interval a.av in
        let av =
          if Float.is_finite alo && Float.is_finite ahi then
            let lo, hi = Lut_catalog.interval name alo ahi in
            Affine.of_interval cx lo hi
          else Affine.top
        in
        let err =
          match Lut_catalog.lipschitz name with
          | Some l -> l *. a.err
          | None -> infinity
        in
        { av; err }
    | _ -> bot (* structural ops: evaluated by the driver *)
  in
  finish fmt i.Instr.op v

(* ------------------------------------------------------------------ findings *)

let check { fmt; _ } (cells : cell array) (i : Instr.t) =
  if not (quantized i.Instr.op) then []
  else
    let c = cells.(i.Instr.id) in
    let name = Op.name i.Instr.op in
    let div =
      match (i.Instr.op, List.nth_opt i.Instr.args 1) with
      | Op.Bin Op.Div, Some a when a >= 0 && a < Array.length cells ->
          let d = cells.(a) in
          let bmin = zero_distance d.lo d.hi in
          if bmin = 0.0 then
            Absint.report Finding.Warning "prec-div-error"
              "divisor interval [%g, %g] contains zero" d.lo d.hi
          else if bmin <= d.err then
            Absint.report Finding.Warning "prec-div-error"
              "divisor stays %g from zero but carries error %g" bmin d.err
          else []
      | _ -> []
    in
    let mx = Numfmt.max_value fmt in
    let fits =
      (* a finite ideal range already past the format is the root cause;
         the infinite error [finish] then charges is its consequence *)
      if
        Float.is_finite c.lo && Float.is_finite c.hi
        && inflate (Float.max (Float.abs c.lo) (Float.abs c.hi)) > mx
      then
        Absint.report Finding.Warning "prec-overflow"
          "%s range [%g, %g] exceeds %s max %g" name c.lo c.hi (Numfmt.name fmt) mx
      else if
        not (Float.is_finite c.lo && Float.is_finite c.hi && Float.is_finite c.err)
      then
        Absint.report Finding.Warning "prec-unbounded"
          "%s has no finite error bound under %s (value [%g, %g], error %g)" name
          (Numfmt.name fmt) c.lo c.hi c.err
      else if inflate (Float.max (Float.abs c.lo) (Float.abs c.hi) +. c.err) > mx
      then
        Absint.report Finding.Warning "prec-overflow"
          "%s range [%g, %g] (+error %g) exceeds %s max %g" name c.lo c.hi c.err
          (Numfmt.name fmt) mx
      else []
    in
    div @ fits

(* ------------------------------------------------------------ the domain *)

module Run = Absint.Make (struct
  type nonrec ctx = ctx
  type value = aval
  type nonrec cell = cell

  let pass = Finding.Precision_check
  let top = bot
  let const c = { av = Affine.const c; err = 0.0 }
  let binop { cx; _ } = binop cx
  let isqrt { cx; _ } = isqrt cx
  let to_cell = cell_of_aval
  let of_cell { cx; _ } (c : cell) = { av = Affine.of_interval cx c.lo c.hi; err = c.err }

  let join a b =
    { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi; err = Float.max a.err b.err }

  let equal a b = a.lo = b.lo && a.hi = b.hi && a.err = b.err

  let input { fmt; _ } (kind : Absint.input) lo hi =
    match kind with
    | Absint.Scalar -> { lo; hi; err = 0.0 }
    | Absint.Stream ->
        (* quantizing an in-range input can round it just past the range:
           widen by one quantum (saturation caps it at the format max) *)
        let q = Numfmt.quantum fmt ~mag:(Float.max (Float.abs lo) (Float.abs hi)) in
        let mx = Numfmt.max_value fmt in
        { lo = Float.max (lo -. q) (-.mx); hi = Float.min (hi +. q) mx; err = 0.0 }

  let mark { cx; _ } = Affine.mark cx
  let rewind { cx; _ } = Affine.rewind cx
  let transfer = transfer
  let check = check
end)

(* ------------------------------------------------------------------ results *)

type result = {
  fmt : Numfmt.t;
  bound : float;
  findings : Finding.t list;
  outputs : (string * (float * float) * float) list;
}

let analyze ~fmt (k : Kernel.t) =
  let findings, stored = Run.analyze { cx = Affine.ctx (); fmt } k in
  let outputs =
    List.map (fun (s, (c : cell)) -> (s, (c.lo, c.hi), inflate c.err)) stored
  in
  let bound = List.fold_left (fun b (_, _, e) -> Float.max b e) 0.0 outputs in
  { fmt; bound; findings; outputs }

(* ------------------------------------------------------- format selection *)

type choice = {
  kernel : string;
  budget : float;
  fmt : Numfmt.t;
  bound : float;
  fallback : bool;
  tried : (Numfmt.t * float) list;
}

let default_budget () =
  match Sys.getenv_opt "PICACHU_ERROR_BUDGET" with
  | None -> 1e-2
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some b when Float.is_finite b && b > 0.0 -> b
      | _ ->
          invalid_arg
            (Printf.sprintf "PICACHU_ERROR_BUDGET: expected a finite positive float, got %S" s))

let resolve_budget budget =
  let b = match budget with Some b -> b | None -> default_budget () in
  if Float.is_finite b && b > 0.0 then b
  else invalid_arg (Printf.sprintf "error budget must be finite and positive, got %g" b)

let select_format ?budget ?(candidates = Numfmt.catalogue) (k : Kernel.t) =
  let budget = resolve_budget budget in
  let tried = List.map (fun f -> (f, (analyze ~fmt:f k).bound)) candidates in
  match List.find_opt (fun (_, b) -> b <= budget) tried with
  | Some (fmt, bound) ->
      { kernel = k.Kernel.name; budget; fmt; bound; fallback = false; tried }
  | None ->
      (* nothing proves the budget: fall back to the best proven bound, or
         to the widest candidate when no bound is finite at all *)
      let best =
        List.fold_left
          (fun acc (f, b) ->
            match acc with
            | Some (_, bb) when bb <= b -> acc
            | _ when Float.is_finite b -> Some (f, b)
            | _ -> acc)
          None tried
      in
      let fmt, bound =
        match best with
        | Some fb -> fb
        | None -> (
            match List.rev tried with fb :: _ -> fb | [] -> (Numfmt.Float Picachu_numerics.Minifloat.fp32, infinity))
      in
      { kernel = k.Kernel.name; budget; fmt; bound; fallback = true; tried }
