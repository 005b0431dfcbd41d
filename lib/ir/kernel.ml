type sexpr =
  | Svar of string
  | Sconst of float
  | Sbin of Op.binop * sexpr * sexpr
  | Sisqrt of sexpr

type loop = {
  label : string;
  pre : (string * sexpr) list;
  body : Instr.t list;
  reduction : bool;
  exports : (string * int) list;
  step : int;
  vector_width : int;
}

type klass = EO | RE

type t = {
  name : string;
  klass : klass;
  loops : loop list;
  inputs : string list;
  outputs : string list;
  scalar_inputs : string list;
}

let kernel_instr_count k =
  List.fold_left (fun acc l -> acc + List.length l.body) 0 k.loops
let find loop id = List.find (fun (i : Instr.t) -> i.id = id) loop.body

let rec finite_sexpr = function
  | Svar _ -> true
  | Sconst v -> Float.is_finite v
  | Sbin (_, a, b) -> finite_sexpr a && finite_sexpr b
  | Sisqrt e -> finite_sexpr e

(* The induction phi and its increment, when the loop has the canonical
   skeleton br -> cmp.lt(iv_add, bound) -> add(iv_phi, step) -> phi.
   Called on a loop whose operands are already known to resolve. *)
let induction body =
  match Array.find_opt (fun (i : Instr.t) -> i.op = Op.Br) body with
  | Some { Instr.args = [ cmp ]; _ } -> (
      match body.(cmp) with
      | { Instr.op = Op.Cmp _; args = [ add; _ ]; _ } -> (
          match body.(add) with
          | { Instr.op = Op.Bin Op.Add; args = phi :: _; _ }
            when body.(phi).Instr.op = Op.Phi ->
              Some (phi, add, cmp)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* The induction variable is loop control, not data: the only readers of
   it or its increment are the increment itself, the phi's back edge, the
   loop compare, and load/store address operands (which the unroller
   re-bases through [offset]).  Any other reader would see copy 0's index
   in every unrolled copy. *)
let data_read_of_induction loop body =
  match induction body with
  | None -> None
  | Some (phi, add, cmp) ->
      let control v = v = phi || v = add in
      let allowed (i : Instr.t) pos =
        i.id = phi || i.id = add || i.id = cmp
        || (pos = 0 && Op.is_memory i.op)
      in
      let bad_use =
        Array.find_map
          (fun (i : Instr.t) ->
            List.find_mapi
              (fun pos a ->
                if control a && not (allowed i pos) then
                  Some
                    (Printf.sprintf
                       "instruction %%%d (%s) reads the induction variable \
                        %%%d as data; only the increment, the loop compare \
                        and load/store addresses may"
                       i.id (Op.name i.op) a)
                else None)
              i.args)
          body
      in
      match bad_use with
      | Some _ as e -> e
      | None ->
          List.find_map
            (fun (name, id) ->
              if control id then
                Some
                  (Printf.sprintf "export %s reads the induction variable %%%d"
                     name id)
              else None)
            loop.exports

let validate_loop (k : t) (loop : loop) =
  let n = List.length loop.body in
  let ids = List.mapi (fun pos (i : Instr.t) -> (pos, i)) loop.body in
  let err fmt = Printf.ksprintf (fun s -> Error (loop.label ^ ": " ^ s)) fmt in
  let rec check = function
    | [] -> Ok ()
    | (pos, (i : Instr.t)) :: rest ->
        if i.id <> pos then err "instruction %d has id %d (ids must be dense)" pos i.id
        else
          let bad_arg =
            List.find_opt
              (fun a ->
                a < 0 || a >= n
                || (a >= pos && not (i.op = Op.Phi && List.nth i.args 1 = a)))
              i.args
          in
          let arity_ok =
            match i.op with
            | Op.Const _ | Op.Input _ -> i.args = []
            | Op.Bin _ | Op.Cmp _ -> List.length i.args = 2
            | Op.Un _ | Op.Br | Op.Fp2fx_int | Op.Fp2fx_frac | Op.Lut _ ->
                List.length i.args = 1
            | Op.Select -> List.length i.args = 3
            | Op.Phi -> List.length i.args = 2
            | Op.Load _ -> List.length i.args <= 1
            | Op.Store _ -> List.length i.args >= 1 && List.length i.args <= 2
            | Op.Shift_exp -> List.length i.args = 2
            | Op.Fused _ -> List.length i.args >= 1
          in
          if not arity_ok then err "instruction %%%d (%s): bad arity" i.id (Op.name i.op)
          else (
            match bad_arg with
            | Some a -> err "instruction %%%d: bad argument %%%d" i.id a
            | None -> (
                match i.op with
                | Op.Load s when not (List.mem s k.inputs || List.mem s k.outputs) ->
                    (* intermediate streams produced by an earlier loop are
                       declared as outputs and may be re-read *)
                    err "load from undeclared input %s" s
                | Op.Store s when not (List.mem s k.outputs) ->
                    err "store to undeclared output %s" s
                | Op.Const c when not (Float.is_finite c) ->
                    err "instruction %%%d (const): non-finite constant %g" i.id c
                | Op.Fused _ ->
                    (* only DFG fusion creates these, on DFG nodes *)
                    err "instruction %%%d (%s): fused opcodes exist only in DFGs" i.id
                      (Op.name i.op)
                | _ -> check rest))
  in
  match check ids with
  | Error _ as e -> e
  | Ok () ->
      let brs = List.filter (fun (i : Instr.t) -> i.op = Op.Br) loop.body in
      if List.length brs <> 1 then err "expected exactly one branch, found %d" (List.length brs)
      else if loop.step < 1 then err "step < 1"
      else if loop.vector_width < 1 then err "vector_width < 1"
      else
        let bad_export =
          List.find_opt (fun (_, id) -> id < 0 || id >= n) loop.exports
        in
        match bad_export with
        | Some (name, id) -> err "export %s references missing instruction %%%d" name id
        | None -> (
            match List.find_opt (fun (_, e) -> not (finite_sexpr e)) loop.pre with
            | Some (name, _) -> err "pre %s: non-finite constant" name
            | None -> (
                match data_read_of_induction loop (Array.of_list loop.body) with
                | Some msg -> err "%s" msg
                | None -> Ok ()))

let validate k =
  let rec all = function
    | [] -> Ok ()
    | l :: rest -> ( match validate_loop k l with Ok () -> all rest | e -> e)
  in
  all k.loops
