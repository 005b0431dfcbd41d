module Nm = Picachu_numerics

type env = {
  arrays : (string * float array) list;
  scalars : (string * float) list;
}

type result = {
  out_arrays : (string * float array) list;
  out_scalars : (string * float) list;
}

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let lookup_lut name =
  match Nm.Lut_catalog.find_opt name with
  | Some t -> t
  | None -> fail "unknown LUT %s" name

let eval_binop (op : Op.binop) a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | Max -> Float.max a b
  | Min -> Float.min a b

let eval_cmp (op : Op.cmpop) a b =
  let r =
    match op with
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
    | Eq -> a = b
    | Ne -> a <> b
  in
  if r then 1.0 else 0.0

(* Operands are read through [arg] in the order these expressions apply
   it (OCaml evaluates application arguments right to left): an engine
   whose reads have side effects, such as the executor's fault draws,
   depends on that order. *)
let eval_op (op : Op.t) arg =
  match op with
  | Bin b -> eval_binop b (arg 0) (arg 1)
  | Un Neg -> -.arg 0
  | Un Abs -> Float.abs (arg 0)
  | Un Floor -> Float.floor (arg 0)
  | Cmp c -> eval_cmp c (arg 0) (arg 1)
  | Select -> if arg 0 <> 0.0 then arg 1 else arg 2
  (* the FP2FX split x = floor x + frac, kept in float so that a value
     past the int range (or NaN) splits the same on every platform *)
  | Fp2fx_int -> Float.floor (arg 0)
  | Fp2fx_frac ->
      let x = arg 0 in
      x -. Float.floor x
  (* int_of_float is unspecified for NaN and past the int range: a NaN
     shift gives NaN, and the shift is clamped to +-2100 first, where
     ldexp has saturated already *)
  | Shift_exp ->
      let k = arg 1 in
      let x = arg 0 in
      if Float.is_nan k then Float.nan
      else
        let k = Float.min 2100.0 (Float.max (-2100.0) k) in
        Float.ldexp x (int_of_float (Float.round k))
  | Lut name -> Nm.Lut.eval (lookup_lut name) (arg 0)
  | Br -> arg 0
  | Const _ | Input _ | Phi | Load _ | Store _ | Fused _ ->
      invalid_arg ("Interp.eval_op: " ^ Op.name op ^ " is not a function of its operands")

let rec eval_sexpr scalars = function
  | Kernel.Svar s -> (
      match List.assoc_opt s scalars with
      | Some v -> v
      | None -> fail "setup references unknown scalar %s" s)
  | Kernel.Sconst v -> v
  | Kernel.Sbin (op, a, b) -> eval_binop op (eval_sexpr scalars a) (eval_sexpr scalars b)
  | Kernel.Sisqrt e ->
      let v = eval_sexpr scalars e in
      if v <= 0.0 then fail "isqrt of non-positive value %g" v else 1.0 /. sqrt v

(* Trip count: the branch condition compares the incremented induction
   variable against a scalar Input; that scalar is the element count. *)
let trip_count_scalar (loop : Kernel.loop) =
  let body = Array.of_list loop.body in
  let br =
    match
      Array.find_opt (fun (i : Instr.t) -> i.op = Op.Br) body
    with
    | Some i -> i
    | None -> fail "%s: no branch" loop.label
  in
  let cmp_id = List.hd br.args in
  let cmp = body.(cmp_id) in
  match cmp.args with
  | [ _; n_ref ] -> (
      match body.(n_ref).op with
      | Op.Input s -> s
      | _ -> fail "%s: branch bound is not a scalar input" loop.label)
  | _ -> fail "%s: malformed branch compare" loop.label

let trip_scalar = trip_count_scalar

let run_loop ?round (loop : Kernel.loop) ~arrays ~scalars ~outputs =
  (* the optional rounding hook models a finite machine: it sees every
     instruction result and may quantize it (staged per loop so a hook can
     precompute per-loop facts, e.g. the control skeleton) *)
  let round_instr =
    match round with
    | Some r -> r loop
    | None -> fun (_ : Instr.t) v -> v
  in
  let scalars = ref scalars in
  List.iter
    (fun (name, e) -> scalars := (name, eval_sexpr !scalars e) :: !scalars)
    loop.pre;
  let trip_name = trip_count_scalar loop in
  let n =
    match List.assoc_opt trip_name !scalars with
    | Some v -> int_of_float v
    | None -> fail "%s: missing trip scalar %s" loop.label trip_name
  in
  let trips = (n + loop.step - 1) / loop.step in
  let body = Array.of_list loop.body in
  let count = Array.length body in
  let values = Array.make count 0.0 in
  let prev = Array.make count 0.0 in
  let get_array name =
    match List.assoc_opt name arrays with
    | Some a -> a
    | None -> fail "%s: missing input stream %s" loop.label name
  in
  let get_output name len =
    match Hashtbl.find_opt outputs name with
    | Some a -> a
    | None ->
        let a = Array.make len 0.0 in
        Hashtbl.add outputs name a;
        a
  in
  for iter = 0 to trips - 1 do
    let base = iter * loop.step in
    Array.iter
      (fun (i : Instr.t) ->
        let arg k = values.(List.nth i.args k) in
        let v =
          match i.op with
          | Op.Const c -> c
          | Op.Input s -> (
              match List.assoc_opt s !scalars with
              | Some v -> v
              | None -> fail "%s: missing scalar %s" loop.label s)
          | Op.Phi -> if iter = 0 then arg 0 else prev.(List.nth i.args 1)
          | Op.Load s ->
              let a = get_array s in
              let idx = base + i.offset in
              if idx >= Array.length a then fail "%s: load %s[%d] out of bounds" loop.label s idx
              else a.(idx)
          | Op.Store s ->
              let a = get_output s n in
              let idx = base + i.offset in
              if idx < Array.length a then a.(idx) <- values.(List.nth i.args 1);
              values.(List.nth i.args 1)
          | Op.Fused _ -> fail "%s: fused op in IR interpreter" loop.label
          | op -> eval_op op arg
        in
        values.(i.id) <- round_instr i v)
      body;
    Array.blit values 0 prev 0 count
  done;
  let scalars' =
    List.fold_left
      (fun acc (name, id) ->
        (name, if trips = 0 then 0.0 else values.(id)) :: acc)
      !scalars loop.exports
  in
  scalars'

let run ?round (k : Kernel.t) env =
  (match Kernel.validate k with
  | Ok () -> ()
  | Error e -> fail "invalid kernel: %s" e);
  let outputs = Hashtbl.create 4 in
  let scalars =
    List.fold_left
      (fun scalars loop ->
        (* streams written by earlier loops become readable *)
        let arrays =
          Hashtbl.fold (fun name a acc -> (name, a) :: acc) outputs env.arrays
        in
        run_loop ?round loop ~arrays ~scalars ~outputs)
      env.scalars k.loops
  in
  {
    out_arrays = Hashtbl.fold (fun name a acc -> (name, a) :: acc) outputs [];
    out_scalars = scalars;
  }
