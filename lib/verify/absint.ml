module Op = Picachu_ir.Op
module Instr = Picachu_ir.Instr
module Kernel = Picachu_ir.Kernel

(* inputs in [-2, 2] (the standard test vectors), trips up to 1024 *)
let input_lo = -2.0
let input_hi = 2.0
let trip_max = 1024

(* The loop-control skeleton (induction phi, its increment, the bound
   compare, the branch and the trip-count register) lives on the integer
   control path of the BrT tiles, not the fixed-point data path.  Derived
   independently of [Transform.find_skeleton]. *)
let skeleton_ids (body : Instr.t array) =
  match Array.find_opt (fun (i : Instr.t) -> i.Instr.op = Op.Br) body with
  | None -> []
  | Some br -> (
      match br.Instr.args with
      | [ cmp_id ] when cmp_id >= 0 && cmp_id < Array.length body -> (
          let cmp = body.(cmp_id) in
          match cmp.Instr.args with
          | [ iv_add_id; bound_id ]
            when iv_add_id >= 0 && iv_add_id < Array.length body -> (
              let iv_add = body.(iv_add_id) in
              match iv_add.Instr.args with
              | iv_phi_id :: _ ->
                  [ br.Instr.id; cmp_id; iv_add_id; bound_id; iv_phi_id ]
              | [] -> [ br.Instr.id; cmp_id; iv_add_id; bound_id ])
          | _ -> [ br.Instr.id; cmp_id ])
      | _ -> [ br.Instr.id ])

type input = Stream | Scalar

let report sev code fmt = Printf.ksprintf (fun m -> [ (sev, code, m) ]) fmt

module type DOMAIN = sig
  type ctx
  type value
  type cell

  val pass : Finding.pass
  val top : value
  val const : float -> value
  val binop : ctx -> Op.binop -> value -> value -> value
  val isqrt : ctx -> value -> value
  val to_cell : value -> cell
  val of_cell : ctx -> cell -> value
  val join : cell -> cell -> cell
  val equal : cell -> cell -> bool
  val input : ctx -> input -> float -> float -> cell

  val transfer :
    ctx ->
    body:Instr.t array ->
    value:(int -> value) ->
    Instr.t ->
    arg:(int -> value) ->
    value

  val check :
    ctx -> cell array -> Instr.t -> (Finding.severity * string * string) list
end

(* fixpoint rounds run by every analysis, process-wide: an atomic, so it
   stays exact under the domain pool *)
let rounds = Atomic.make 0
let fixpoint_rounds () = Atomic.get rounds
let reset_fixpoint_rounds () = Atomic.set rounds 0

module Make (D : DOMAIN) = struct
  let cell_top = D.to_cell D.top

  (* the between-loop scalar glue; operands left to right, which fixes the
     order Precision allocates noise symbols in *)
  let eval_sexpr cx scalars e =
    let rec go = function
      | Kernel.Svar s -> (
          match List.assoc_opt s scalars with
          | Some c -> D.of_cell cx c
          | None -> D.top)
      | Kernel.Sconst v -> D.const v
      | Kernel.Sbin (op, x, y) ->
          let a = go x in
          let b = go y in
          D.binop cx op a b
      | Kernel.Sisqrt x -> D.isqrt cx (go x)
    in
    go e

  (* One abstract iteration of the loop body.  [phi_value] supplies the
     value a phi observes this iteration. *)
  let eval_body cx (body : Instr.t array) ~lookup_stream ~lookup_scalar
      ~phi_value =
    let count = Array.length body in
    let values = Array.make count D.top in
    let value id = if id >= 0 && id < count then values.(id) else D.top in
    Array.iter
      (fun (i : Instr.t) ->
        let arg k =
          match List.nth_opt i.Instr.args k with Some a -> value a | None -> D.top
        in
        values.(i.Instr.id) <-
          (match i.Instr.op with
          | Op.Const c -> D.const c
          | Op.Input s -> lookup_scalar s
          | Op.Phi -> phi_value i.Instr.id (arg 0)
          | Op.Load s -> lookup_stream s
          | Op.Store _ -> arg 1
          | Op.Br -> arg 0
          | Op.Fused _ -> D.top
          | _ -> D.transfer cx ~body ~value i ~arg))
      body;
    values

  (* Does any instruction the driver evaluates read the loop-control
     skeleton as data?  [eval_body] decides what is read: [Const], [Input],
     [Load] and [Fused] read no operands (a load's address is not data),
     [Store] reads only its value, every other op reads all of its
     operands.  Exports read their instruction.  The skeleton's own
     instructions may read one another. *)
  let reads_skeleton ~body ~skeleton (loop : Kernel.loop) =
    let in_skeleton id = List.mem id skeleton in
    Array.exists
      (fun (i : Instr.t) ->
        (not (in_skeleton i.Instr.id))
        &&
        match i.Instr.op with
        | Op.Const _ | Op.Input _ | Op.Load _ | Op.Fused _ -> false
        | Op.Store _ -> (
            match List.nth_opt i.Instr.args 1 with
            | Some v -> in_skeleton v
            | None -> false)
        | _ -> List.exists in_skeleton i.Instr.args)
      body
    || List.exists (fun (_, id) -> in_skeleton id) loop.Kernel.exports

  (* Abstract execution of one loop.  The transfer function is iterated
     with accumulating joins until it stabilizes or [trip_max] rounds have
     run.  Because every concrete execution performs at most [trip_max]
     iterations, the joined state after round k soundly covers every
     concrete run of up to k trips — so stopping at the cap needs no
     widening heuristics and the result is still a sound invariant.
     Monotone accumulators (reduction sums) simply walk to their
     trip-bounded extreme; multiplicative blowups walk to infinity.

     Stopping rule.  The induction phi grows by one every round, so a test
     over every cell would never stop before the cap.  When the data path
     is decoupled from the skeleton (nothing it evaluates, stores or
     exports reads a skeleton cell), the skeleton cells are left out of the
     stability test.  Exactness: each round's data cells are a function of
     the previous round's data cells and the fixed inputs alone, so once
     they repeat, every later round reproduces them and the cap would
     return the same data cells.  Skeleton cells are then less far along
     than at the cap, but nothing downstream reads them: they are excluded
     from checks, and stores and exports are data.  Affine symbols never
     cross loops (loops hand over cells), so allocating fewer of them
     shifts no later loop's arithmetic.  A coupled loop keeps the test over
     every cell and so runs to the cap. *)
  let analyze_loop cx ~streams ~scalars ~body ~skeleton (loop : Kernel.loop) =
    let count = Array.length body in
    let scalars = ref scalars in
    (* the trip-count scalar (the branch bound) is a positive element count *)
    (match skeleton with
    | _ :: _ :: _ :: bound_id :: _ when bound_id >= 0 && bound_id < count -> (
        match body.(bound_id).Instr.op with
        | Op.Input s ->
            scalars :=
              (s, D.input cx Scalar 1.0 (float_of_int trip_max)) :: !scalars
        | _ -> ())
    | _ -> ());
    List.iter
      (fun (name, e) ->
        scalars := (name, D.to_cell (eval_sexpr cx !scalars e)) :: !scalars)
      loop.Kernel.pre;
    let lookup_stream s =
      D.of_cell cx
        (match Hashtbl.find_opt streams s with
        | Some c -> c
        | None -> D.input cx Stream input_lo input_hi)
    in
    let lookup_scalar s =
      D.of_cell cx
        (match List.assoc_opt s !scalars with
        | Some c -> c
        | None -> D.input cx Scalar input_lo input_hi)
    in
    let state = ref [||] in
    let first = ref true in
    let phi_value id init =
      if !first then init
      else
        let s = !state in
        let carried =
          match body.(id).Instr.args with
          | [ _; next ] when next >= 0 && next < count -> s.(next)
          | _ -> cell_top
        in
        D.of_cell cx (D.join (D.to_cell init) (D.join s.(id) carried))
    in
    let watched =
      let coupled = reads_skeleton ~body ~skeleton loop in
      List.init count Fun.id
      |> List.filter (fun id -> coupled || not (List.mem id skeleton))
      |> Array.of_list
    in
    let iters = ref 0 in
    let stable = ref false in
    while (not !stable) && !iters <= trip_max do
      let values = eval_body cx body ~lookup_stream ~lookup_scalar ~phi_value in
      let joined =
        if !first then Array.map D.to_cell values
        else Array.mapi (fun i v -> D.join !state.(i) (D.to_cell v)) values
      in
      stable :=
        (not !first)
        && Array.for_all (fun id -> D.equal !state.(id) joined.(id)) watched;
      first := false;
      state := joined;
      incr iters
    done;
    ignore (Atomic.fetch_and_add rounds !iters);
    let cells = !state in
    (* record stores and exports for downstream loops *)
    Array.iter
      (fun (i : Instr.t) ->
        match i.Instr.op with
        | Op.Store s ->
            let c = cells.(i.Instr.id) in
            let c =
              match Hashtbl.find_opt streams s with
              | Some old -> D.join old c
              | None -> c
            in
            Hashtbl.replace streams s c
        | _ -> ())
      body;
    let exports =
      List.map (fun (name, id) -> (name, cells.(id))) loop.Kernel.exports
    in
    (cells, exports @ !scalars)

  let loop_findings cx ~kernel (loop : Kernel.loop) ~skeleton cells =
    List.concat_map
      (fun (i : Instr.t) ->
        let node = i.Instr.id in
        if List.mem node skeleton then []
        else
          List.map
            (fun (sev, code, msg) ->
              Finding.make ~kernel ~loop:loop.Kernel.label ~node D.pass sev
                ~code "%s" msg)
            (D.check cx cells i))
      loop.Kernel.body

  let analyze cx (k : Kernel.t) =
    let streams = Hashtbl.create 8 in
    let _, findings =
      List.fold_left
        (fun (scalars, acc) (loop : Kernel.loop) ->
          let body = Array.of_list loop.Kernel.body in
          let skeleton = skeleton_ids body in
          let cells, scalars =
            analyze_loop cx ~streams ~scalars ~body ~skeleton loop
          in
          (scalars, loop_findings cx ~kernel:k.Kernel.name loop ~skeleton cells :: acc))
        ([], []) k.Kernel.loops
    in
    let stored =
      Hashtbl.fold (fun s c acc -> (s, c) :: acc) streams []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    (List.concat (List.rev findings), stored)
end
