module Op = Picachu_ir.Op
module Instr = Picachu_ir.Instr
module Fx = Picachu_numerics.Fixed_point
module Lut_catalog = Picachu_numerics.Lut_catalog

(* ----------------------------------------------------------- interval domain *)

type itv = { lo : float; hi : float }

let top = { lo = neg_infinity; hi = infinity }
let point v = { lo = v; hi = v }
let make lo hi = if lo <= hi then { lo; hi } else { lo = hi; hi = lo }
let is_finite i = Float.is_finite i.lo && Float.is_finite i.hi
let join a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }
let equal a b = a.lo = b.lo && a.hi = b.hi
let guard i = if Float.is_nan i.lo || Float.is_nan i.hi then top else i

(* 0 * inf = 0 under interval multiplication (the zero operand is exact) *)
let mul_bound a b = if a = 0.0 || b = 0.0 then 0.0 else a *. b

let add_i a b = guard { lo = a.lo +. b.lo; hi = a.hi +. b.hi }
let sub_i a b = guard { lo = a.lo -. b.hi; hi = a.hi -. b.lo }

let mul_i a b =
  let p1 = mul_bound a.lo b.lo
  and p2 = mul_bound a.lo b.hi
  and p3 = mul_bound a.hi b.lo
  and p4 = mul_bound a.hi b.hi in
  guard
    {
      lo = Float.min (Float.min p1 p2) (Float.min p3 p4);
      hi = Float.max (Float.max p1 p2) (Float.max p3 p4);
    }

let contains_zero i = i.lo <= 0.0 && i.hi >= 0.0

let div_i a b =
  if b.lo > 0.0 || b.hi < 0.0 then
    (* divisor provably excludes zero: tight endpoint quotients *)
    let p1 = a.lo /. b.lo and p2 = a.lo /. b.hi and p3 = a.hi /. b.lo and p4 = a.hi /. b.hi in
    guard
      {
        lo = Float.min (Float.min p1 p2) (Float.min p3 p4);
        hi = Float.max (Float.max p1 p2) (Float.max p3 p4);
      }
  else if b.lo = 0.0 && b.hi > 0.0 then
    (* divisor in (0, hi]: the quotient is unbounded toward the sign(s) of
       the numerator but keeps the finite bound from the hi end *)
    if a.lo >= 0.0 then guard { lo = a.lo /. b.hi; hi = infinity }
    else if a.hi <= 0.0 then guard { lo = neg_infinity; hi = a.hi /. b.hi }
    else top
  else if b.hi = 0.0 && b.lo < 0.0 then
    (* divisor in [lo, 0): mirrored through the sign flip *)
    if a.lo >= 0.0 then guard { lo = neg_infinity; hi = a.lo /. b.lo }
    else if a.hi <= 0.0 then guard { lo = a.hi /. b.lo; hi = infinity }
    else top
  else top

let max_i a b = { lo = Float.max a.lo b.lo; hi = Float.max a.hi b.hi }
let min_i a b = { lo = Float.min a.lo b.lo; hi = Float.min a.hi b.hi }
let neg_i a = { lo = -.a.hi; hi = -.a.lo }

let abs_i a =
  if a.lo >= 0.0 then a
  else if a.hi <= 0.0 then neg_i a
  else { lo = 0.0; hi = Float.max (-.a.lo) a.hi }

let floor_i a = { lo = Float.floor a.lo; hi = Float.floor a.hi }

let binop_i (op : Op.binop) a b =
  match op with
  | Op.Add -> add_i a b
  | Op.Sub -> sub_i a b
  | Op.Mul -> mul_i a b
  | Op.Div -> div_i a b
  | Op.Max -> max_i a b
  | Op.Min -> min_i a b

let isqrt_i i =
  if i.hi <= 0.0 then top
  else
    let hi = if i.lo > 0.0 then 1.0 /. sqrt i.lo else infinity in
    guard { lo = 1.0 /. sqrt i.hi; hi }

let shift_exp_i a e =
  let p_lo, p_hi = Absint.shift_exp_pow e.lo e.hi in
  mul_i a (make p_lo p_hi)

let lut_i name a =
  if Lut_catalog.known name then
    (* sound output range of the clamped PWL interpolant: interior nodes
       included, which reduces to the endpoint scan for monotone tables *)
    let lo, hi = Lut_catalog.interval name a.lo a.hi in
    guard (make lo hi)
  else top

let fx_bounds fmt =
  (Fx.to_float fmt (Fx.min_int_value fmt), Fx.to_float fmt (Fx.max_int_value fmt))

(* ------------------------------------------------------------ the domain *)

module Domain = struct
  type ctx = Fx.fmt (* the checked Q format *)
  type value = itv
  type cell = itv

  let pass = Finding.Range_check
  let top = top
  let const = point
  let binop _ = binop_i
  let isqrt _ = isqrt_i
  let to_cell = Fun.id
  let of_cell _ = Fun.id
  let join = join
  let equal = equal
  let input _ _ lo hi = make lo hi

  let transfer _ ~body:_ ~value:_ (i : Instr.t) ~arg =
    match i.Instr.op with
    | Op.Bin op -> binop_i op (arg 0) (arg 1)
    | Op.Un Op.Neg -> neg_i (arg 0)
    | Op.Un Op.Abs -> abs_i (arg 0)
    | Op.Un Op.Floor | Op.Fp2fx_int -> floor_i (arg 0)
    | Op.Cmp _ | Op.Fp2fx_frac -> make 0.0 1.0
    | Op.Select -> join (arg 1) (arg 2)
    | Op.Shift_exp -> shift_exp_i (arg 0) (arg 1)
    | Op.Lut name -> lut_i name (arg 0)
    | _ -> top (* structural ops: evaluated by the driver *)

  let check fmt (cells : itv array) (i : Instr.t) =
    match i.Instr.op with
    (* constants are configuration registers (wide, saturated at load
       time); predicates are one bit; scalar inputs are checked where the
       producing loop exports them *)
    | Op.Const _ | Op.Input _ | Op.Cmp _ | Op.Br -> []
    | op ->
        let fx_lo, fx_hi = fx_bounds fmt in
        let step = Fx.to_float fmt 1 in
        let v = cells.(i.Instr.id) and name = Op.name op in
        let div =
          match op with
          | Op.Bin Op.Div ->
              let d =
                match List.nth_opt i.Instr.args 1 with
                | Some a when a >= 0 && a < Array.length cells -> cells.(a)
                | _ -> top
              in
              if contains_zero d then
                Absint.report Finding.Warning "div-by-zero"
                  "divisor interval [%g, %g] contains zero" d.lo d.hi
              else []
          | _ -> []
        in
        let fits =
          if not (is_finite v) then
            Absint.report Finding.Warning "fx-unbounded" "%s value is unbounded: [%g, %g]"
              name v.lo v.hi
          else if v.lo < fx_lo || v.hi > fx_hi then
            Absint.report Finding.Warning "fx-overflow"
              "%s range [%g, %g] exceeds Q%d.%d representable [%g, %g]" name v.lo v.hi
              (fmt.Fx.total_bits - fmt.Fx.frac_bits)
              fmt.Fx.frac_bits fx_lo fx_hi
          else if
            Float.max (Float.abs v.lo) (Float.abs v.hi) < step
            && not (v.lo = 0.0 && v.hi = 0.0)
          then
            Absint.report Finding.Info "fx-precision"
              "%s range [%g, %g] is below one quantum (%g): value flushes to zero" name
              v.lo v.hi step
          else []
        in
        div @ fits
end

module Run = Absint.Make (Domain)

(* dynamic fixed point with a Q8.8 view of the INT16 lane: 8 integer bits of
   headroom above the unit-interval activations *)
let q8_8 = Fx.fmt ~total_bits:16 ~frac_bits:8

let analyze ?(fmt = q8_8) k = fst (Run.analyze fmt k)

let safe ?fmt k =
  List.for_all
    (fun (f : Finding.t) -> f.Finding.severity = Finding.Info)
    (analyze ?fmt k)
