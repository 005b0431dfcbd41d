module Op = Picachu_ir.Op
module Instr = Picachu_ir.Instr
module Kernel = Picachu_ir.Kernel
module Interp = Picachu_ir.Interp
module Dfg = Picachu_dfg.Dfg

exception Timing_violation of string
exception Execution_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Execution_error s)) fmt
let timing fmt = Printf.ksprintf (fun s -> raise (Timing_violation s)) fmt

type result = {
  out_arrays : (string * float array) list;
  out_scalars : (string * float) list;
  cycles : int;
}

let run_loop ?fault arch (loop : Kernel.loop) (g : Dfg.t) (m : Mapper.mapping)
    ~arrays ~scalars =
  if loop.Kernel.vector_width <> 1 then
    invalid_arg "Executor.run_loop: vectorized loops share the scalar schedule";
  let body = Array.of_list loop.Kernel.body in
  let count = Array.length body in
  let trip_name = Interp.trip_scalar loop in
  let n =
    match List.assoc_opt trip_name scalars with
    | Some v -> int_of_float v
    | None -> fail "%s: missing trip scalar %s" loop.Kernel.label trip_name
  in
  let trips = (n + loop.Kernel.step - 1) / loop.Kernel.step in
  (* instruction -> owning node *)
  let owner = Array.make count (-1) in
  Array.iter
    (fun (node : Dfg.node) ->
      List.iter (fun i -> owner.(i) <- node.Dfg.id) node.Dfg.origins)
    g.Dfg.nodes;
  (* iteration-invariant registers: constants and scalar live-ins *)
  let fixed = Array.make count None in
  Array.iter
    (fun (i : Instr.t) ->
      match i.Instr.op with
      | Op.Const v -> fixed.(i.Instr.id) <- Some v
      | Op.Input s -> (
          match List.assoc_opt s scalars with
          | Some v -> fixed.(i.Instr.id) <- Some v
          | None -> fail "%s: missing scalar %s" loop.Kernel.label s)
      | _ -> ())
    body;
  (* per-iteration value and availability-cycle matrices *)
  let values = Array.make_matrix (Stdlib.max trips 1) count 0.0 in
  let avail = Array.make_matrix (Stdlib.max trips 1) count (-1) in
  let node_lat u = Arch.latency arch g.Dfg.nodes.(u).Dfg.op in
  let outputs = Hashtbl.create 4 in
  let get_array name =
    match List.assoc_opt name arrays with
    | Some a -> a
    | None -> fail "%s: missing input stream %s" loop.Kernel.label name
  in
  let get_output name =
    match Hashtbl.find_opt outputs name with
    | Some a -> a
    | None ->
        let a = Array.make n 0.0 in
        Hashtbl.add outputs name a;
        a
  in
  let last_cycle = ref 0 in
  (* read instr [a]'s value for iteration [k] from the consumer node [u]
     issuing at cycle [c]; [back] marks a loop-carried (phi next) read *)
  let read ~u ~c ~k ~back a =
    match fixed.(a) with
    | Some v -> v
    | None ->
        let kk = if back then k - 1 else k in
        if kk < 0 then fail "%s: back edge read before any iteration" loop.Kernel.label
        else begin
          let producer = owner.(a) in
          if producer < 0 then fail "%s: unowned operand %%%d" loop.Kernel.label a;
          if avail.(kk).(a) < 0 then
            timing "%s: node %d reads %%%d[k=%d] before it was produced"
              loop.Kernel.label u a kk;
          if producer <> u then begin
            let hops =
              Arch.distance arch m.Mapper.schedule.(producer).Mapper.tile
                m.Mapper.schedule.(u).Mapper.tile
            in
            if avail.(kk).(a) + hops > c then
              timing "%s: node %d reads %%%d[k=%d] at cycle %d, ready only at %d+%d"
                loop.Kernel.label u a kk c
                avail.(kk).(a) hops
          end;
          let v = values.(kk).(a) in
          match fault with
          | None -> v
          | Some inj ->
              (* a dropped mesh transfer leaves the consumer's input register
                 holding the previous iteration's value (zero before any
                 iteration wrote it); RF read disturbance applies to every
                 register read, local or routed *)
              let v =
                if producer <> u && Fault.noc_drop inj then
                  if kk > 0 then values.(kk - 1).(a) else 0.0
                else v
              in
              Fault.rf_read inj v
        end
  in
  let exec_node (node : Dfg.node) k =
    let u = node.Dfg.id in
    let t_u = m.Mapper.schedule.(u).Mapper.time in
    let c = t_u + (k * m.Mapper.ii) in
    let done_at = c + node_lat u in
    last_cycle := Stdlib.max !last_cycle done_at;
    let base = k * loop.Kernel.step in
    List.iter
      (fun iid ->
        let i = body.(iid) in
        let arg ?(back = false) idx = read ~u ~c ~k ~back (List.nth i.Instr.args idx) in
        let v =
          match i.Instr.op with
          | Op.Const _ | Op.Input _ -> fail "%s: register op owned by a node" loop.Kernel.label
          | Op.Phi -> if k = 0 then arg 0 else arg ~back:true 1
          | Op.Load s ->
              (* the address register is a real dependence on the induction
                 value: verify its timing even though the AGU computes the
                 effective address locally *)
              ignore (arg 0);
              let a = get_array s in
              let idx = base + i.Instr.offset in
              if idx >= Array.length a then
                fail "%s: load %s[%d] out of bounds" loop.Kernel.label s idx
              else a.(idx)
          | Op.Store s ->
              ignore (arg 0);
              let out = get_output s in
              let v = arg 1 in
              let idx = base + i.Instr.offset in
              if idx < Array.length out then out.(idx) <- v;
              v
          | Op.Fused _ -> fail "%s: fused opcode with no members" loop.Kernel.label
          | op -> Interp.eval_op op arg
        in
        (* FU output corruption latches into the result register and
           propagates; memory/routing ops (load, store, phi, br) have no FU
           datapath — their faults are the RF/NoC models above *)
        let v =
          match fault with
          | None -> v
          | Some inj -> (
              match i.Instr.op with
              | Op.Lut _ -> Fault.lut_output inj v
              | Op.Bin _ | Op.Un _ | Op.Cmp _ | Op.Select | Op.Fp2fx_int
              | Op.Fp2fx_frac | Op.Shift_exp ->
                  Fault.fu_output inj v
              | _ -> v)
        in
        values.(k).(iid) <- v;
        avail.(k).(iid) <- done_at)
      node.Dfg.origins
  in
  (* simulate in dataflow order (iteration-major, topological within), while
     the recorded cycle numbers carry the pipelined timing that [read]
     verifies *)
  let order = Dfg.topo_order g in
  for k = 0 to trips - 1 do
    List.iter (fun u -> exec_node g.Dfg.nodes.(u) k) order
  done;
  let out_scalars =
    List.map
      (fun (name, id) ->
        (name, if trips = 0 then 0.0 else values.(trips - 1).(id)))
      loop.Kernel.exports
  in
  {
    out_arrays = Hashtbl.fold (fun name a acc -> (name, a) :: acc) outputs [];
    out_scalars;
    cycles = !last_cycle;
  }
