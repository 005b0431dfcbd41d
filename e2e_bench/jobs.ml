(* The five workloads: each op is one job a user of the toolchain runs,
   made from seeded inputs, timed from outside around calls into the
   library's public functions, and checked.

   An op is prepared untimed ([op ~pass ~stratum ~seed] builds its inputs),
   run timed (applying the result to [()]), and checked untimed (applying
   what that returns to [()]).  Ops come in stratified passes of
   [pass_len]: every stratum once per pass, in a seeded order, so a run of
   whole passes always has the same mix of op kinds whatever the seed. *)

open Picachu
module Kernel = Picachu_ir.Kernel
module Kernels = Picachu_ir.Kernels
module Interp = Picachu_ir.Interp
module Mapper = Picachu_cgra.Mapper
module Mz = Picachu_llm.Model_zoo
module Surrogate = Picachu_llm.Surrogate
module Tensor = Picachu_tensor.Tensor
module Rng = Picachu_tensor.Rng
module Approx = Picachu_numerics.Approx

type checked = {
  ok : bool;
  why : string;  (** what the check found wrong; [""] when [ok] *)
  digest : string;  (** of the output, for the pool-invariance re-run *)
  model : (string * float) list;  (** modelled-design values of this op *)
}

(* How a modelled-design metric folds the ops of a round. *)
type fold = Median | Min

type model_metric = { m_name : string; m_unit : string; m_better : [ `Lower | `Higher ]; fold : fold }

type instance = {
  pass_len : int;
  op : pass:int -> stratum:int -> seed:int -> unit -> unit -> checked;
  scaling : (string * int list * (size:int -> seed:int -> unit -> unit)) option;
      (** layer metric name, input sizes, and the untraced op at a size *)
}

type t = {
  name : string;
  why : string;
  round_ops : int;  (** ops per round: whole passes, about two seconds of work *)
  model_metrics : model_metric list;
  setup : smoke:bool -> seed:int -> instance;
}

(* Charge the pipeline passes [f] runs to the innermost span, one leaf
   layer per pass, from deltas of the compiler's own pass timers. *)
let with_passes f =
  if not !Trace.enabled then f ()
  else begin
    let before = Compiler.compile_stats () in
    let r = f () in
    List.iter2
      (fun (b : Pipeline.pass_stats) (a : Pipeline.pass_stats) ->
        Trace.add_charge ("pipeline." ^ a.pass)
          (Int64.of_float ((a.wall_s -. b.wall_s) *. 1e9))
          (a.runs - b.runs))
      before (Compiler.compile_stats ());
    r
  end

let pass_ok ~digest ~model = { ok = true; why = ""; digest; model }
let fail why = { ok = false; why; digest = ""; model = [] }

let bits b f = Buffer.add_int64_le b (Int64.bits_of_float f)

(* Every output stream and exported scalar of [hw] equals [reference] bit for
   bit; [None] when they do. *)
let first_mismatch (hw : Interp.result) (reference : Interp.result) =
  let differ a b = Int64.bits_of_float a <> Int64.bits_of_float b in
  let streams =
    List.find_map
      (fun (name, xs) ->
        match List.assoc_opt name reference.Interp.out_arrays with
        | None -> Some (name ^ " missing from the interpreter")
        | Some ys ->
            if Array.length xs <> Array.length ys then Some (name ^ " length differs")
            else
              Seq.find_map
                (fun i ->
                  if differ xs.(i) ys.(i) then
                    Some (Printf.sprintf "%s[%d] = %h, interpreter %h" name i xs.(i) ys.(i))
                  else None)
                (Seq.init (Array.length xs) Fun.id))
      hw.Interp.out_arrays
  in
  match streams with
  | Some _ -> streams
  | None ->
      List.find_map
        (fun (name, v) ->
          match List.assoc_opt name hw.Interp.out_scalars with
          | Some w when differ v w -> Some ("scalar " ^ name ^ " differs")
          | _ -> None)
        reference.Interp.out_scalars

(* ------------------------------------------------------- compile-roster *)

(* One kernel compiled the way `picachu compile` does it for the paper's
   4x4: format selection, an auto-tuned pipeline run with no memoization,
   the independent verifier, and the cycle-accurate executor checked bit
   for bit against the reference interpreter on the source kernel.  The
   digest covers the chosen format, every loop's II and placement, and the
   executor's outputs. *)
let compile_kernel opts (k : Kernel.t) env b =
  let choice = Trace.span "precision.select" (fun () -> Compiler.select_format k) in
  Trace.count "precision.formats_tried" (float (List.length choice.Picachu_verify.Precision.tried));
  match Trace.span "compiler" (fun () -> with_passes (fun () -> Compiler.compile_result opts k)) with
  | Error e -> Error (Picachu_error.to_string e)
  | Ok c -> (
      let findings = Trace.span "verify.check" (fun () -> Compiler.verify_compiled opts c) in
      let hw = Trace.span "hw_sim.run" (fun () -> Hw_sim.run c env) in
      let reference = Trace.span "interp.run" (fun () -> Interp.run k env) in
      match (findings, first_mismatch hw.Hw_sim.result reference) with
      | f :: _, _ -> Error ("verifier: " ^ Picachu_verify.Finding.to_string f)
      | [], Some m -> Error (k.Kernel.name ^ ": " ^ m)
      | [], None ->
          Buffer.add_string b (Picachu_numerics.Numfmt.name choice.fmt);
          bits b choice.bound;
          Printf.bprintf b "uf%d;" c.Compiler.unroll;
          List.iter
            (fun (l : Compiler.compiled_loop) ->
              Printf.bprintf b "ii%d:" l.mapping.Mapper.ii;
              Array.iter
                (fun (p : Mapper.placement) -> Printf.bprintf b "%d@%d," p.time p.tile)
                l.mapping.Mapper.schedule)
            c.Compiler.loops;
          List.iter (fun (_, xs) -> Array.iter (bits b) xs) hw.Hw_sim.result.Interp.out_arrays;
          Ok (List.fold_left (fun acc (l : Compiler.compiled_loop) -> acc + l.mapping.Mapper.ii) 0 c.Compiler.loops))

(* An op is a cold compile of the whole roster in Taylor and NLI form, 18
   kernels, as a user compiles one model's nonlinear operators.  Per-kernel
   ops were tried first: their times fall in separated groups (relu ~20 ms,
   swiglu ~77 ms, rope ~99 ms, ...), so the median sat on one group or the
   next depending on how many ops a slow spell of the host touched, and
   moved by 16% between seeds. *)
let compile_roster =
  let setup ~smoke ~seed:_ =
    let roster = Explore.kernel_roster () @ Explore.kernel_roster ~backend:Kernels.Nli () in
    let roster = if smoke then List.filteri (fun i _ -> i mod 6 = 1) roster else roster in
    let opts = Compiler.picachu_options () in
    let n = 64 in
    let op ~pass:_ ~stratum:_ ~seed =
      let rng = Rng.create seed in
      let jobs =
        List.map
          (fun (k : Kernel.t) ->
            ( k,
              {
                Interp.arrays =
                  List.map
                    (fun name -> (name, Array.init n (fun _ -> Rng.uniform rng ~lo:(-4.0) ~hi:4.0)))
                    k.Kernel.inputs;
                scalars = [ ("n", float_of_int n) ];
              } ))
          roster
      in
      fun () ->
        let b = Buffer.create 8192 in
        let result =
          List.fold_left
            (fun acc (k, env) ->
              Result.bind acc (fun total ->
                  Result.map (fun ii -> total + ii) (compile_kernel opts k env b)))
            (Ok 0) jobs
        in
        fun () ->
          match result with
          | Error why -> fail why
          | Ok ii -> pass_ok ~digest:(Buffer.contents b) ~model:[ ("model.sum_ii", float ii) ]
    in
    { pass_len = 1; op; scaling = None }
  in
  {
    name = "compile-roster";
    round_ops = 3;
    why =
      "cold compiles of the 18-kernel Taylor+NLI roster for the 4x4: format selection \
       dominates, then the mapper";
    model_metrics = [ { m_name = "model.sum_ii"; m_unit = "cycles"; m_better = `Lower; fold = Median } ];
    setup;
  }

(* --------------------------------------------------------- design-space *)

(* One co-design search per op from an empty compile cache, as every CLI
   invocation starts: cold compiles and warm-start hints, no precision
   work. *)
let design_space =
  let setup ~smoke ~seed:_ =
    let iters, batch = if smoke then (2, 2) else (16, 4) in
    let op ~pass:_ ~stratum:_ ~seed =
      Compiler.cache_clear ();
      let config = { Codesign.default_config with Codesign.iters; batch; seed } in
      fun () ->
        let r = Trace.span "codesign" (fun () -> with_passes (fun () -> Codesign.run ~config ())) in
        fun () ->
          Trace.count "codesign.infeasible" (float r.Codesign.infeasible);
          let trace = r.Codesign.trace in
          let best = r.Codesign.best.Explore.perf_per_area in
          let rec monotone = function
            | a :: (b :: _ as rest) ->
                a.Codesign.best_score <= b.Codesign.best_score && monotone rest
            | _ -> true
          in
          let infeasible =
            List.length (List.filter (fun e -> e.Codesign.score = None) trace)
          in
          if List.length trace <> iters || r.Codesign.evaluated <> iters then
            fail "trace length differs from the iteration count"
          else if not (Float.is_finite best && best > 0.0) then fail "best perf/area not positive"
          else if best < r.Codesign.init_point.Explore.perf_per_area then
            fail "best is worse than the initial design"
          else if not (monotone trace) then fail "running best decreased"
          else if infeasible <> r.Codesign.infeasible then fail "infeasible count differs"
          else
            let b = Buffer.create 512 in
            List.iter
              (fun (e : Codesign.trace_entry) ->
                Printf.bprintf b "%d %s %s %b " e.step e.move e.arch_name e.accepted;
                Option.iter (bits b) e.score;
                bits b e.best_score)
              trace;
            Buffer.add_string b r.Codesign.best.Explore.arch_name;
            pass_ok ~digest:(Buffer.contents b) ~model:[ ("model.perf_per_area", best) ]
    in
    { pass_len = 1; op; scaling = None }
  in
  {
    name = "design-space";
    round_ops = 16;
    why =
      "a 16-iteration co-design search from a cold compile cache: mapper and pipeline \
       heavy, cache writes and warm starts";
    model_metrics =
      [ { m_name = "model.perf_per_area"; m_unit = "elem/cycle/mm2"; m_better = `Higher; fold = Median } ];
    setup;
  }

(* -------------------------------------------------------------- serving *)

(* The llama2-7b cost source, built and warmed on every (prompt, generate)
   bucket the traces draw from, so ops time the step model rather than the
   first compiles.  Traced, each lookup is charged to the serving layer. *)
let cost_source () =
  let raw = Scheduler.robust_source (Simulator.default_config ()) Mz.llama2_7b in
  let spec = Scheduler.default_trace ~rps:1.0 ~requests:1 () in
  Array.iter
    (fun prompt ->
      Array.iter
        (fun generate -> ignore (raw { Serving.prompt; generate }))
        spec.Scheduler.generate_buckets)
    spec.Scheduler.prompt_buckets;
  if !Trace.enabled then fun r -> Trace.charge "serving.cost" (fun () -> raw r) else raw

let check_completions ~arrivals (completions : Scheduler.completion list) =
  let seen = Hashtbl.create 1024 in
  List.find_map
    (fun (c : Scheduler.completion) ->
      if Hashtbl.mem seen c.c_id then Some (Printf.sprintf "request %d completed twice" c.c_id)
      else begin
        Hashtbl.add seen c.c_id ();
        if c.c_id < 0 || c.c_id >= arrivals then Some "unknown request id"
        else if not (Float.is_finite c.c_ttft_s && Float.is_finite c.c_latency_s) then Some "nonfinite latency"
        else if c.c_ttft_s < 0.0 || c.c_latency_s < c.c_ttft_s then
          Some (Printf.sprintf "request %d: ttft %g, latency %g" c.c_id c.c_ttft_s c.c_latency_s)
        else None
      end)
    completions

let digest_completions b (completions : Scheduler.completion list) =
  List.iter
    (fun (c : Scheduler.completion) ->
      Buffer.add_int32_le b (Int32.of_int c.c_id);
      bits b c.c_ttft_s;
      bits b c.c_latency_s)
    completions

(* least-squares slope of log time against log size *)
let loglog_slope pts =
  let n = float (List.length pts) in
  let xs = List.map (fun (x, _) -> log x) pts and ys = List.map (fun (_, y) -> log y) pts in
  let mean l = List.fold_left ( +. ) 0.0 l /. n in
  let mx = mean xs and my = mean ys in
  let sxy = List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0.0 xs ys in
  let sxx = List.fold_left (fun acc x -> acc +. ((x -. mx) ** 2.0)) 0.0 xs in
  sxy /. sxx

let serve_single =
  let rps = 0.25 in
  let setup ~smoke ~seed:_ =
    let cost = cost_source () in
    let arrivals ~seed requests =
      Scheduler.trace (Scheduler.default_trace ~seed ~rps ~requests ())
    in
    let run trace = Scheduler.run ~slots:8 ~policy:Scheduler.Continuous ~cost trace in
    let requests = if smoke then 500 else 10_000 in
    let op ~pass:_ ~stratum:_ ~seed =
      let trace = arrivals ~seed requests in
      fun () ->
        let fleet = Trace.span "scheduler" (fun () -> run trace) in
        fun () ->
          let served = List.length fleet.Scheduler.completions in
          if served + fleet.Scheduler.dropped <> requests then
            fail (Printf.sprintf "%d served + %d dropped <> %d" served fleet.dropped requests)
          else
            match check_completions ~arrivals:requests fleet.Scheduler.completions with
            | Some why -> fail why
            | None ->
                let b = Buffer.create (requests * 40) in
                digest_completions b fleet.Scheduler.completions;
                Printf.bprintf b "dropped %d" fleet.Scheduler.dropped;
                pass_ok ~digest:(Buffer.contents b)
                  ~model:[ ("model.ttft_p95_s", fleet.Scheduler.ttft.p95) ]
    in
    let sizes = if smoke then [ 125; 250; 500 ] else [ 2_500; 5_000; 10_000 ] in
    let at_size ~size ~seed =
      let trace = arrivals ~seed size in
      fun () -> ignore (run trace)
    in
    { pass_len = 1; op; scaling = Some ("scheduler.scaling_exp", sizes, at_size) }
  in
  {
    name = "serve-single";
    round_ops = 50;
    why =
      "one 10k-request llama2-7b trace through the lockstep continuous-batching \
       scheduler; the cost source is warmed in set-up";
    model_metrics =
      [ { m_name = "model.ttft_p95_s"; m_unit = "sim_s"; m_better = `Lower; fold = Median } ];
    setup;
  }

let serve_cluster =
  let rps = 2.0 in
  let setup ~smoke ~seed:_ =
    let cost = cost_source () in
    let arrivals ~seed requests =
      Scheduler.trace (Scheduler.default_trace ~seed ~rps ~requests ())
    in
    let config ~seed =
      Cluster.default_config ~replicas:8 ~router:Cluster.Power_of_two ~slots:8 ~seed
        ~profile:(Cluster.profile_mixed ~seed ~mttf:60.0 ~mttr:6.0 ())
        ()
    in
    let requests = if smoke then 100 else 1_000 in
    let op ~pass:_ ~stratum:_ ~seed =
      let trace = arrivals ~seed requests and cfg = config ~seed in
      fun () ->
        let r = Trace.span "cluster" (fun () -> Cluster.run cfg ~cost trace) in
        fun () ->
          let c = r.Cluster.counters in
          List.iter
            (fun (k, v) -> Trace.count ("cluster." ^ k) (float v))
            [
              ("dispatches", c.Cluster.dispatches);
              ("hedges", c.hedges);
              ("hedge_wins", c.hedge_wins);
              ("retries", c.retries);
              ("timeouts", c.timeouts);
              ("requeued", c.requeued);
              ("breaker_trips", c.breaker_trips);
            ];
          Trace.count "cluster.amplification" r.Cluster.amplification;
          if r.Cluster.arrivals <> requests then fail "arrival count differs"
          else if not (Cluster.accounting_ok r) then fail "answered + dropped + failed <> arrivals"
          else if List.length r.Cluster.completions <> r.Cluster.answered then
            fail "completions differ from answered"
          else if not (r.Cluster.availability >= 0.0 && r.Cluster.availability <= 1.0) then
            fail "availability outside [0, 1]"
          else
            match check_completions ~arrivals:requests r.Cluster.completions with
            | Some why -> fail why
            | None ->
                let b = Buffer.create (requests * 40) in
                digest_completions b r.Cluster.completions;
                Printf.bprintf b "%d %d %d %d %d %d" r.answered r.dropped r.failed c.dispatches
                  c.hedges c.retries;
                pass_ok ~digest:(Buffer.contents b)
                  ~model:
                    [
                      ("model.ttft_p95_s", r.Cluster.ttft.p95);
                      ("model.availability", r.Cluster.availability);
                    ]
    in
    let sizes = if smoke then [ 50; 100; 200 ] else [ 500; 1_000; 2_000 ] in
    let at_size ~size ~seed =
      let trace = arrivals ~seed size and cfg = config ~seed in
      fun () -> ignore (Cluster.run cfg ~cost trace)
    in
    { pass_len = 1; op; scaling = Some ("cluster.scaling_exp", sizes, at_size) }
  in
  {
    name = "serve-cluster";
    round_ops = 14;
    why =
      "a 1k-request trace on 8 replicas with p2c routing, seeded mixed faults and every \
       defense: event queue, retries, hedging and breakers dominate";
    model_metrics =
      [
        { m_name = "model.ttft_p95_s"; m_unit = "sim_s"; m_better = `Lower; fold = Median };
        { m_name = "model.availability"; m_unit = "ratio"; m_better = `Higher; fold = Min };
      ];
    setup;
  }

(* -------------------------------------------------------- accuracy-eval *)

let tab5_models = [| Mz.gpt2_xl; Mz.opt_6_7b; Mz.opt_13b; Mz.llama2_7b; Mz.llama2_13b |]

(* Traced, the vector entry points are timed as the approximation layer and
   the scalar ones only counted: they run per element, where a clock read
   would cost more than the call. *)
let traced_backend scalar_calls (a : Approx.t) =
  let vec f x = Trace.charge "approx.vec" (fun () -> f x) in
  let scalar f x =
    incr scalar_calls;
    f x
  in
  {
    a with
    Approx.format = vec a.format;
    exp_shifted = vec a.exp_shifted;
    gelu = vec a.gelu;
    silu = vec a.silu;
    relu = vec a.relu;
    sin = scalar a.sin;
    cos = scalar a.cos;
    isqrt = scalar a.isqrt;
    div =
      (fun x y ->
        incr scalar_calls;
        a.div x y);
  }

(* One surrogate forward pass: a pass crosses the five Table 5 models with
   three context lengths, and rotates the five backends so that each pass
   runs every backend equally often.  An odd number of strata puts the
   median inside the middle context length's block of ops rather than on
   the boundary between two lengths. *)
let accuracy_eval =
  let setup ~smoke ~seed =
    let models = Array.map (fun m -> Surrogate.create ~seed (Surrogate.surrogate_of m)) tab5_models in
    let scalar_calls = ref 0 in
    let backends =
      Array.map
        (fun b -> if !Trace.enabled then traced_backend scalar_calls b else b)
        [|
          Approx.fp16_reference; Approx.ours_fp (); Approx.ours_int (); Approx.nli_fp (); Approx.nli_int ();
        |]
    in
    let contexts = if smoke then [| 4; 8; 16 |] else [| 32; 64; 128 |] in
    let nm = Array.length models in
    let op ~pass ~stratum ~seed =
      let mi = stratum mod nm and ci = stratum / nm in
      let sur = models.(mi) and backend = backends.((mi + ci + pass) mod Array.length backends) in
      let cfg = Surrogate.cfg sur in
      let ctx = contexts.(ci) in
      let rng = Rng.create seed in
      let tokens = Array.init ctx (fun _ -> Rng.int rng cfg.Surrogate.vocab) in
      scalar_calls := 0;
      fun () ->
        let logits = Trace.span "surrogate" (fun () -> Surrogate.logits sur backend tokens) in
        fun () ->
          Trace.count "approx.scalar_calls" (float !scalar_calls);
          let data = Tensor.data logits in
          if Tensor.shape logits <> [ ctx; cfg.Surrogate.vocab ] then fail "logits shape"
          else if not (Array.for_all Float.is_finite data) then
            fail (Printf.sprintf "%s/%s: nonfinite logit" cfg.Surrogate.name backend.Approx.name)
          else
            let b = Buffer.create (Array.length data * 17) in
            Array.iter (bits b) data;
            pass_ok ~digest:(Buffer.contents b) ~model:[]
    in
    { pass_len = nm * Array.length contexts; op; scaling = None }
  in
  {
    name = "accuracy-eval";
    round_ops = 60;
    why =
      "surrogate forward passes over the Table 5 models, five approximation backends and \
       three context lengths: linear algebra and approximation, no compiler";
    model_metrics = [];
    setup;
  }

let all = [ compile_roster; design_space; serve_single; serve_cluster; accuracy_eval ]
let find name = List.find_opt (fun w -> w.name = name) all
