(* Determinism suite for the discrete-event serving scheduler: hand-computed
   step semantics for both batching policies, queue-capacity drops, and the
   acceptance pins — one small llama2-7b traffic trace whose results must be
   bit-identical across domain-pool sizes 1/2/4 and across repeated runs,
   with Continuous strictly beating Static on p95 TTFT. *)
open Picachu
module Parallel = Picachu_parallel.Parallel
module Mz = Picachu_llm.Model_zoo
module Arch = Picachu_cgra.Arch

let pool_sizes = [ 1; 2; 4 ]
let checkf = Alcotest.(check (float 1e-12))

(* a synthetic cost source: flat decode cost, fixed prefill — every step of
   the simulation is hand-computable *)
let flat_cost ?(prefill = 1.0) ?(decode = 0.1) () : Scheduler.cost_source =
 fun (r : Serving.request) ->
  ( {
      Serving.prefill_s = prefill;
      decode_s_at =
        [ (r.Serving.prompt, decode); (r.Serving.prompt + r.Serving.generate, decode) ];
    },
    Serving.Fused )

let arrival id at prompt generate =
  { Scheduler.id; at; request = { Serving.prompt; generate } }

(* ---------------------------------------------------------------- traces *)

let test_trace_deterministic () =
  let spec = Scheduler.default_trace ~seed:11 ~rps:4.0 ~requests:20 () in
  Alcotest.(check bool) "same seed, same trace" true
    (Scheduler.trace spec = Scheduler.trace spec);
  Alcotest.(check bool) "different seed diverges" true
    (Scheduler.trace spec <> Scheduler.trace { spec with Scheduler.seed = 12 })

let test_trace_shape () =
  let spec = Scheduler.default_trace ~seed:3 ~rps:10.0 ~requests:50 () in
  let tr = Scheduler.trace spec in
  Alcotest.(check int) "count" 50 (List.length tr);
  let prev = ref 0.0 and prev_id = ref (-1) in
  List.iter
    (fun (a : Scheduler.arrival) ->
      Alcotest.(check bool) "arrival order" true (a.Scheduler.at >= !prev);
      Alcotest.(check int) "dense ids" (!prev_id + 1) a.Scheduler.id;
      Alcotest.(check bool) "prompt from buckets" true
        (Array.mem a.Scheduler.request.Serving.prompt spec.Scheduler.prompt_buckets);
      Alcotest.(check bool) "generate from buckets" true
        (Array.mem a.Scheduler.request.Serving.generate spec.Scheduler.generate_buckets);
      prev := a.Scheduler.at;
      prev_id := a.Scheduler.id)
    tr

let test_trace_validation () =
  let spec = Scheduler.default_trace ~rps:4.0 ~requests:8 () in
  Alcotest.check_raises "rps" (Invalid_argument "Scheduler.trace: rps must be positive")
    (fun () -> ignore (Scheduler.trace { spec with Scheduler.rps = 0.0 }));
  (* NaN passes a plain [rps <= 0.0] test; it used to yield NaN arrival
     times that the serving loop never admitted, so [serve] spun forever *)
  Alcotest.check_raises "nan rps" (Invalid_argument "Scheduler.trace: rps must be positive")
    (fun () -> ignore (Scheduler.trace { spec with Scheduler.rps = Float.nan }));
  Alcotest.check_raises "infinite rps" (Invalid_argument "Scheduler.trace: rps must be finite")
    (fun () -> ignore (Scheduler.trace { spec with Scheduler.rps = Float.infinity }));
  Alcotest.check_raises "requests"
    (Invalid_argument "Scheduler.trace: requests must be positive") (fun () ->
      ignore (Scheduler.trace { spec with Scheduler.requests = 0 }))

(* ----------------------------------------------------- policy semantics *)

let test_continuous_hand_computed () =
  (* two requests at t=0, two slots: prefills overlap the admission step
     (1.0 s), then two lockstep decode steps of 0.1 s each *)
  let fleet =
    Scheduler.run ~slots:2 ~policy:Scheduler.Continuous ~cost:(flat_cost ())
      [ arrival 0 0.0 8 2; arrival 1 0.0 8 2 ]
  in
  Alcotest.(check int) "both complete" 2 (List.length fleet.Scheduler.completions);
  List.iter
    (fun (c : Scheduler.completion) ->
      checkf "ttft is the admission step" 1.0 c.Scheduler.c_ttft_s;
      checkf "latency" 1.2 c.Scheduler.c_latency_s;
      checkf "tpot" 0.1 c.Scheduler.c_tpot_s)
    fleet.Scheduler.completions;
  checkf "makespan" 1.2 fleet.Scheduler.makespan_s;
  checkf "throughput" (4.0 /. 1.2) fleet.Scheduler.throughput_tps;
  Alcotest.(check int) "no drops" 0 fleet.Scheduler.dropped

let test_continuous_refills_freed_slot () =
  (* one slot: the second request waits for the first to finish decoding,
     then its prefill occupies the freed slot's next step *)
  let fleet =
    Scheduler.run ~slots:1 ~policy:Scheduler.Continuous ~cost:(flat_cost ())
      [ arrival 0 0.0 8 2; arrival 1 0.0 8 2 ]
  in
  let by_id id =
    List.find (fun (c : Scheduler.completion) -> c.Scheduler.c_id = id)
      fleet.Scheduler.completions
  in
  checkf "first ttft" 1.0 (by_id 0).Scheduler.c_ttft_s;
  checkf "first latency" 1.2 (by_id 0).Scheduler.c_latency_s;
  (* request 1 admits at the 1.2 s boundary, prefill to 2.2, decodes to 2.4 *)
  checkf "second ttft" 2.2 (by_id 1).Scheduler.c_ttft_s;
  checkf "second latency" 2.4 (by_id 1).Scheduler.c_latency_s

let test_static_waits_for_batch () =
  (* batch of two: the first request cannot prefill until the second
     arrives at t=10 — the static TTFT penalty in its purest form *)
  let fleet =
    Scheduler.run ~policy:(Scheduler.Static 2) ~cost:(flat_cost ())
      [ arrival 0 0.0 8 2; arrival 1 10.0 8 2 ]
  in
  let by_id id =
    List.find (fun (c : Scheduler.completion) -> c.Scheduler.c_id = id)
      fleet.Scheduler.completions
  in
  checkf "early arrival waits" 11.0 (by_id 0).Scheduler.c_ttft_s;
  checkf "late arrival only pays prefill" 1.0 (by_id 1).Scheduler.c_ttft_s;
  checkf "makespan" 11.2 fleet.Scheduler.makespan_s

let test_static_partial_final_batch () =
  (* three requests, batch of two: the trailing request runs as a partial
     batch once arrivals are exhausted *)
  let fleet =
    Scheduler.run ~policy:(Scheduler.Static 2) ~cost:(flat_cost ())
      [ arrival 0 0.0 8 1; arrival 1 0.0 8 1; arrival 2 0.0 8 1 ]
  in
  Alcotest.(check int) "all complete" 3 (List.length fleet.Scheduler.completions)

let test_static_tail_after_last_drop () =
  (* a batch of four never fills: the queue holds ids 0 and 1, and id 2
     and the late arrivals at t=3 and t=4 are shed.  Once the stream is
     exhausted the partial batch must still run — starting a replica only
     on enqueue would strand it after the final, dropped arrival *)
  let fleet =
    Scheduler.run ~queue_capacity:2 ~policy:(Scheduler.Static 4) ~cost:(flat_cost ())
      [ arrival 0 0.0 8 2; arrival 1 0.0 8 2; arrival 2 0.0 8 2; arrival 3 3.0 8 2;
        arrival 4 4.0 8 2 ]
  in
  Alcotest.(check int) "dropped" 3 fleet.Scheduler.dropped;
  Alcotest.(check (list int)) "served" [ 0; 1 ]
    (List.map (fun (c : Scheduler.completion) -> c.Scheduler.c_id) fleet.Scheduler.completions);
  List.iter
    (fun (c : Scheduler.completion) ->
      checkf "ttft" 5.0 c.Scheduler.c_ttft_s;
      checkf "latency" 5.2 c.Scheduler.c_latency_s)
    fleet.Scheduler.completions;
  checkf "makespan" 5.2 fleet.Scheduler.makespan_s

let test_queue_capacity_drops () =
  let fleet =
    Scheduler.run ~slots:1 ~queue_capacity:1 ~policy:Scheduler.Continuous
      ~cost:(flat_cost ())
      [ arrival 0 0.0 8 1; arrival 1 0.0 8 1; arrival 2 0.0 8 1 ]
  in
  Alcotest.(check int) "one served" 1 (List.length fleet.Scheduler.completions);
  Alcotest.(check int) "two dropped" 2 fleet.Scheduler.dropped

let test_run_validation () =
  Alcotest.check_raises "slots" (Invalid_argument "Scheduler.run: slots must be positive")
    (fun () ->
      ignore
        (Scheduler.run ~slots:0 ~policy:Scheduler.Continuous ~cost:(flat_cost ()) []));
  Alcotest.check_raises "batch" (Invalid_argument "Scheduler.run: batch size must be positive")
    (fun () ->
      ignore (Scheduler.run ~policy:(Scheduler.Static 0) ~cost:(flat_cost ()) []));
  (* an empty trace is a well-formed degenerate fleet, not an exception —
     the cluster layer feeds per-replica sub-traces that can be empty *)
  let empty = Scheduler.run ~policy:Scheduler.Continuous ~cost:(flat_cost ()) [] in
  Alcotest.(check int) "no completions" 0 (List.length empty.Scheduler.completions);
  Alcotest.(check int) "no drops" 0 empty.Scheduler.dropped;
  checkf "zero throughput" 0.0 empty.Scheduler.throughput_tps;
  checkf "zero p99 ttft" 0.0 empty.Scheduler.ttft.Scheduler.p99;
  Alcotest.(check int) "no tiers" 0 (List.length empty.Scheduler.tiers)

let test_all_dropped_trace () =
  (* queue capacity 1, one slot, a burst at t=0: requests beyond the first
     two are shed.  Before PR 7 an all-dropped trace raised [Invalid_argument]
     out of Scheduler.run; now it must report a well-formed fleet whose
     completions + dropped account for every arrival *)
  let burst = List.init 12 (fun i -> arrival i 0.0 8 1) in
  let fleet =
    Scheduler.run ~slots:1 ~queue_capacity:1 ~policy:Scheduler.Continuous
      ~cost:(flat_cost ()) burst
  in
  Alcotest.(check int) "accounting"
    12
    (List.length fleet.Scheduler.completions + fleet.Scheduler.dropped);
  Alcotest.(check bool) "most of the burst shed" true (fleet.Scheduler.dropped >= 10)

(* ------------------------------------------- the pinned llama2-7b trace *)

let golden_spec = Scheduler.default_trace ~seed:7 ~rps:8.0 ~requests:12 ()

let golden_fleet policy =
  Scheduler.serve ~slots:8 ~queue_capacity:64 ~policy (Simulator.default_config ())
    Mz.llama2_7b golden_spec

let fleet_digest (f : Scheduler.fleet) =
  let b = Buffer.create 512 in
  List.iter
    (fun (c : Scheduler.completion) ->
      Buffer.add_string b
        (Printf.sprintf "%d:%Lx:%Lx:%Lx:%Lx;" c.Scheduler.c_id
           (Int64.bits_of_float c.Scheduler.c_arrival_s)
           (Int64.bits_of_float c.Scheduler.c_ttft_s)
           (Int64.bits_of_float c.Scheduler.c_latency_s)
           (Int64.bits_of_float c.Scheduler.c_tpot_s)))
    f.Scheduler.completions;
  Buffer.add_string b
    (Printf.sprintf "d%d|m%Lx|t%Lx" f.Scheduler.dropped
       (Int64.bits_of_float f.Scheduler.makespan_s)
       (Int64.bits_of_float f.Scheduler.throughput_tps));
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_trace_pinned () =
  (* the full per-request result of the seed-7 trace, pinned: any change to
     the arrival stream, the step model, or the cost machinery moves this *)
  let f = golden_fleet Scheduler.Continuous in
  Alcotest.(check int) "completions" 12 (List.length f.Scheduler.completions);
  Alcotest.(check int) "drops" 0 f.Scheduler.dropped;
  Alcotest.(check string) "p95 ttft" "21.672747"
    (Printf.sprintf "%.6f" f.Scheduler.ttft.Scheduler.p95);
  Alcotest.(check string) "p95 latency" "35.916038"
    (Printf.sprintf "%.6f" f.Scheduler.latency.Scheduler.p95);
  Alcotest.(check string) "digest" "16d32789d5caa77bf3e6f2892fe7a3e9" (fleet_digest f)

let test_golden_pool_invariant () =
  (* bit-identical across domain-pool sizes and across repeated runs *)
  let reference =
    Parallel.with_pool ~size:1 (fun () -> fleet_digest (golden_fleet Scheduler.Continuous))
  in
  List.iter
    (fun size ->
      Parallel.with_pool ~size (fun () ->
          Alcotest.(check string)
            (Printf.sprintf "pool size %d" size)
            reference
            (fleet_digest (golden_fleet Scheduler.Continuous));
          Alcotest.(check string)
            (Printf.sprintf "repeat at size %d" size)
            reference
            (fleet_digest (golden_fleet Scheduler.Continuous))))
    pool_sizes

(* --------------------------------------------- lockstep reference digests *)

(* prefill and decode grow with context, so no two steps cost the same and
   every Float.max in the step arithmetic matters *)
let sloped_cost : Scheduler.cost_source =
 fun (r : Serving.request) ->
  let p = r.Serving.prompt and g = r.Serving.generate in
  let decode ctx = 0.02 +. (1e-5 *. float_of_int ctx) in
  ( {
      Serving.prefill_s = 0.05 +. (1e-3 *. float_of_int p);
      decode_s_at = [ (p, decode p); (p + g, decode (p + g)) ];
    },
    Serving.Fused )

(* fleet digests of 40-request traces (queue 16) recorded from the
   original lockstep-loop scheduler, before it became a 1-replica cluster:
   (seed, rps, policy, slots, served, dropped, digest).  Static batching
   ignores [slots], hence the repeated digests. *)
let lockstep_goldens =
  let c = Scheduler.Continuous and s = Scheduler.Static 4 in
  [
    (1, 0.5, c, 1, 40, 0, "2db36b294078ad66d8830894b95001e5");
    (1, 0.5, c, 8, 40, 0, "e1b66d8279a7f525731d2524ab644897");
    (1, 0.5, s, 1, 40, 0, "5789efd263130f74cf90051690a0df80");
    (1, 0.5, s, 8, 40, 0, "5789efd263130f74cf90051690a0df80");
    (2, 2.0, c, 1, 34, 6, "527283c78d744a8d619c36b11c858a07");
    (2, 2.0, c, 8, 40, 0, "7e6f6bc7258fabf58068708a2d6d6717");
    (2, 2.0, s, 1, 40, 0, "e5d1790f832e3b8735f407bc5def95a2");
    (2, 2.0, s, 8, 40, 0, "e5d1790f832e3b8735f407bc5def95a2");
    (3, 8.0, c, 1, 21, 19, "389245f93cf966b5fd7cd379e919ee3a");
    (3, 8.0, c, 8, 37, 3, "9561e1c76567cfdf2dc118e05d43c2d4");
    (3, 8.0, s, 1, 28, 12, "b96e6802812be8064afc775abd547678");
    (3, 8.0, s, 8, 28, 12, "b96e6802812be8064afc775abd547678");
    (4, 30.0, c, 1, 17, 23, "ee9c4cdc00506003fcf8945c98cc1e6f");
    (4, 30.0, c, 8, 24, 16, "8233ad6da799ee85064fb193f8782c6f");
    (4, 30.0, s, 1, 20, 20, "171c87395d894c0dda209c4f63bcb19b");
    (4, 30.0, s, 8, 20, 20, "171c87395d894c0dda209c4f63bcb19b");
  ]

let test_lockstep_goldens () =
  List.iter
    (fun (seed, rps, policy, slots, served, dropped, digest) ->
      let name =
        Printf.sprintf "seed %d rps %g %s slots %d" seed rps (Scheduler.policy_name policy)
          slots
      in
      let f =
        Scheduler.run ~slots ~queue_capacity:16 ~policy ~cost:sloped_cost
          (Scheduler.trace (Scheduler.default_trace ~seed ~rps ~requests:40 ()))
      in
      Alcotest.(check int) (name ^ ": served") served (List.length f.Scheduler.completions);
      Alcotest.(check int) (name ^ ": dropped") dropped f.Scheduler.dropped;
      Alcotest.(check string) (name ^ ": digest") digest (fleet_digest f))
    lockstep_goldens

let test_continuous_beats_static_p95_ttft () =
  let cont = golden_fleet Scheduler.Continuous in
  let stat = golden_fleet (Scheduler.Static 4) in
  Alcotest.(check bool) "strictly better tail TTFT" true
    (cont.Scheduler.ttft.Scheduler.p95 < stat.Scheduler.ttft.Scheduler.p95)

let test_degraded_tier_shows_up () =
  (* picachu-variant kernels on the homogeneous baseline fabric are
     structurally unmappable: every request falls through the robust
     ladder, and the fleet records who actually answered *)
  let cfg = { (Simulator.default_config ()) with Simulator.arch = Arch.baseline () } in
  let spec =
    {
      (Scheduler.default_trace ~seed:5 ~rps:8.0 ~requests:4 ()) with
      Scheduler.prompt_buckets = [| 32; 64 |];
      generate_buckets = [| 4; 8 |];
    }
  in
  let f = Scheduler.serve ~policy:Scheduler.Continuous cfg Mz.gpt2_xl spec in
  Alcotest.(check int) "all answered" 4 (List.length f.Scheduler.completions);
  (match f.Scheduler.tiers with
  | [ (Serving.Baseline_cgra, 4) ] -> ()
  | _ -> Alcotest.fail "expected every request served by the baseline tier");
  List.iter
    (fun (c : Scheduler.completion) ->
      Alcotest.(check bool) "positive ttft" true (c.Scheduler.c_ttft_s > 0.0))
    f.Scheduler.completions

let suite =
  [
    ( "scheduler",
      [
        Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
        Alcotest.test_case "trace shape" `Quick test_trace_shape;
        Alcotest.test_case "trace validation" `Quick test_trace_validation;
        Alcotest.test_case "continuous hand-computed" `Quick test_continuous_hand_computed;
        Alcotest.test_case "continuous refills freed slot" `Quick
          test_continuous_refills_freed_slot;
        Alcotest.test_case "static waits for batch" `Quick test_static_waits_for_batch;
        Alcotest.test_case "static partial final batch" `Quick
          test_static_partial_final_batch;
        Alcotest.test_case "static tail after last drop" `Quick
          test_static_tail_after_last_drop;
        Alcotest.test_case "queue capacity drops" `Quick test_queue_capacity_drops;
        Alcotest.test_case "validation" `Quick test_run_validation;
        Alcotest.test_case "all-dropped trace" `Quick test_all_dropped_trace;
        Alcotest.test_case "golden trace pinned" `Quick test_golden_trace_pinned;
        Alcotest.test_case "golden pool-invariant" `Quick test_golden_pool_invariant;
        Alcotest.test_case "lockstep reference digests" `Quick test_lockstep_goldens;
        Alcotest.test_case "continuous beats static p95 ttft" `Quick
          test_continuous_beats_static_p95_ttft;
        Alcotest.test_case "degraded tier shows up" `Quick test_degraded_tier_shows_up;
      ] );
  ]
