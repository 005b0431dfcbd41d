(* Cluster-serving suite: the event-queue ordering contract (qcheck oracle),
   the PR 5 golden-trace replay through a 1-replica fault-free cluster,
   a defended-cluster golden (8 replicas, mixed faults, hedging firing),
   pool-size and repeat determinism at every fault profile, the chaos
   acceptance scenario (defenses on >= 0.99 availability, defenses off
   measurably lower), the availability accounting identity as a property,
   and hand-checked router/timeout semantics. *)
open Picachu
module Parallel = Picachu_parallel.Parallel
module Mz = Picachu_llm.Model_zoo

let qtest = QCheck_alcotest.to_alcotest
let pool_sizes = [ 1; 2; 4 ]

(* the same synthetic flat cost source the scheduler suite hand-computes
   against: fixed prefill, flat decode — fault timing is the only variable *)
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

(* bit-exact digest over a cluster report, in the exact format of the
   scheduler suite's [fleet_digest] (goodput stands in for throughput —
   same tokens/makespan formula) so the two are directly comparable *)
let cluster_digest (r : Cluster.report) =
  let b = Buffer.create 512 in
  List.iter
    (fun (c : Scheduler.completion) ->
      Buffer.add_string b
        (Printf.sprintf "%d:%Lx:%Lx:%Lx:%Lx;" c.Scheduler.c_id
           (Int64.bits_of_float c.Scheduler.c_arrival_s)
           (Int64.bits_of_float c.Scheduler.c_ttft_s)
           (Int64.bits_of_float c.Scheduler.c_latency_s)
           (Int64.bits_of_float c.Scheduler.c_tpot_s)))
    r.Cluster.completions;
  Buffer.add_string b
    (Printf.sprintf "d%d|m%Lx|t%Lx" r.Cluster.dropped
       (Int64.bits_of_float r.Cluster.makespan_s)
       (Int64.bits_of_float r.Cluster.goodput_tps));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------ event queue *)

let test_event_queue_basics () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Event_queue.push q ~at:2.0 "b";
  Event_queue.push q ~at:1.0 "a";
  Event_queue.push q ~at:3.0 "c";
  Alcotest.(check int) "length" 3 (Event_queue.length q);
  Alcotest.(check (float 0.0)) "top time" 1.0 (Event_queue.top_time q);
  Alcotest.(check (option string)) "pop a" (Some "a")
    (Option.map snd (Event_queue.pop q));
  Alcotest.(check (option string)) "pop b" (Some "b")
    (Option.map snd (Event_queue.pop q));
  Alcotest.(check (option string)) "pop c" (Some "c")
    (Option.map snd (Event_queue.pop q));
  Alcotest.(check bool) "drained" true (Event_queue.pop q = None);
  Alcotest.(check (float 0.0)) "empty top time" Float.infinity (Event_queue.top_time q);
  Alcotest.check_raises "nan time"
    (Invalid_argument "Event_queue.push: NaN time") (fun () ->
      Event_queue.push q ~at:Float.nan "x")

let test_event_queue_stable_ties () =
  (* equal times must pop in push order — the determinism anchor the whole
     cluster simulation leans on *)
  let q = Event_queue.create () in
  List.iteri (fun i t -> Event_queue.push q ~at:t i) [ 1.0; 1.0; 0.5; 1.0; 0.5 ];
  let order = List.init 5 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list int)) "fifo within a timestamp" [ 2; 4; 0; 1; 3 ] order

let prop_event_queue_matches_sorted_oracle =
  (* dequeue order == a stable sort of the push sequence by time: the heap
     must agree with the obvious list-based oracle, ties included (times
     drawn from a tiny grid to force collisions) *)
  QCheck.Test.make ~name:"event queue drains in stable (time, seq) order"
    ~count:500
    QCheck.(list (pair (int_range 0 7) small_nat))
    (fun entries ->
      let q = Event_queue.create () in
      List.iteri
        (fun i (t, v) -> Event_queue.push q ~at:(float_of_int t /. 4.0) (i, v))
        entries;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, v) -> drain ((t, v) :: acc)
      in
      let got = drain [] in
      let oracle =
        List.mapi (fun i (t, v) -> (float_of_int t /. 4.0, (i, v))) entries
        |> List.stable_sort (fun (t1, _) (t2, _) -> Float.compare t1 t2)
      in
      got = oracle)

(* --------------------------------------------------- golden-trace replay *)

let golden_cluster_config =
  Cluster.default_config ~replicas:1 ~slots:8 ~queue_capacity:64
    ~defenses:Cluster.no_defenses ()

let test_golden_replay () =
  (* a 1-replica, zero-fault, defense-free cluster is the scheduler: the
     pinned single-replica digest must hold bit-for-bit over the cluster's
     report *)
  let r =
    Cluster.serve golden_cluster_config (Simulator.default_config ()) Mz.llama2_7b
      Test_scheduler.golden_spec
  in
  Alcotest.(check int) "answered" 12 r.Cluster.answered;
  Alcotest.(check int) "dropped" 0 r.Cluster.dropped;
  Alcotest.(check int) "failed" 0 r.Cluster.failed;
  Alcotest.(check bool) "identity" true (Cluster.accounting_ok r);
  Alcotest.(check string) "pinned PR 5 digest" "16d32789d5caa77bf3e6f2892fe7a3e9"
    (cluster_digest r)

(* the serve-cluster shape with every defense on: 8 replicas behind p2c,
   mixed faults, llama2-7b through the robust cost source.  300 requests at
   2 rps is long enough for hedging to arm and fire, so this pins the
   hedge delay's p95 as well as the defense-free replay above *)
let defended_golden_report () =
  let cfg =
    Cluster.default_config ~replicas:8 ~router:Cluster.Power_of_two ~slots:8 ~seed:3
      ~profile:(Cluster.profile_mixed ~seed:3 ~mttf:60.0 ~mttr:6.0 ())
      ~defenses:Cluster.default_defenses ()
  in
  Cluster.serve cfg (Simulator.default_config ()) Mz.llama2_7b
    (Scheduler.default_trace ~seed:3 ~rps:2.0 ~requests:300 ())

let defended_digest (r : Cluster.report) =
  let c = r.Cluster.counters in
  let pct (p : Scheduler.pct) =
    Printf.sprintf "%Lx:%Lx:%Lx" (Int64.bits_of_float p.Scheduler.p50)
      (Int64.bits_of_float p.Scheduler.p95) (Int64.bits_of_float p.Scheduler.p99)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            cluster_digest r;
            Printf.sprintf "a%d d%d f%d" r.Cluster.answered r.Cluster.dropped r.Cluster.failed;
            Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d" c.Cluster.crashes c.hangs
              c.slowdowns c.requeued c.retries c.timeouts c.hedges c.hedge_wins
              c.breaker_trips c.probes c.dispatches;
            pct r.Cluster.ttft;
            pct r.Cluster.latency;
          ]))

let test_golden_defended () =
  let r = defended_golden_report () in
  Alcotest.(check bool) "identity" true (Cluster.accounting_ok r);
  Alcotest.(check bool) "hedging fired" true (r.Cluster.counters.Cluster.hedges > 0);
  Alcotest.(check string) "pinned defended digest" "4bc4eeddcc0352e77f57b55bd80f6446"
    (defended_digest r)

(* ------------------------------------------- determinism across profiles *)

let profile_roster =
  [
    ("none", Cluster.profile_none);
    ("crash", Cluster.profile_crash ~seed:2 ~mttf:5.0 ~mttr:2.0 ());
    ("straggler", Cluster.profile_straggler ~seed:2 ~mttf:5.0 ~mttr:2.0 ());
    ("mixed", Cluster.profile_mixed ~seed:2 ~mttf:5.0 ~mttr:2.0 ());
  ]

let test_pool_invariant_every_profile () =
  (* bit-identical across domain-pool sizes and repeat runs, at every fault
     profile — the failure model must not leak scheduling nondeterminism *)
  let trace = Scheduler.trace (Scheduler.default_trace ~seed:9 ~rps:3.0 ~requests:24 ()) in
  let run profile =
    let cfg =
      Cluster.default_config ~replicas:3 ~slots:4 ~profile
        ~defenses:{ Cluster.default_defenses with Cluster.timeout_s = 20.0 }
        ()
    in
    cluster_digest (Cluster.run cfg ~cost:(flat_cost ()) trace)
  in
  List.iter
    (fun (name, profile) ->
      let reference = Parallel.with_pool ~size:1 (fun () -> run profile) in
      List.iter
        (fun size ->
          Parallel.with_pool ~size (fun () ->
              Alcotest.(check string)
                (Printf.sprintf "%s at pool size %d" name size)
                reference (run profile);
              Alcotest.(check string)
                (Printf.sprintf "%s repeat at pool size %d" name size)
                reference (run profile)))
        pool_sizes)
    profile_roster

(* ------------------------------------------------------- chaos acceptance *)

let chaos_profile = Cluster.profile_mixed ~seed:3 ~mttf:6.0 ~mttr:2.0 ()

let chaos_trace =
  Scheduler.trace
    {
      (Scheduler.default_trace ~seed:5 ~rps:2.0 ~requests:60 ()) with
      Scheduler.prompt_buckets = [| 32; 64 |];
      generate_buckets = [| 8; 16 |];
    }

let chaos_config defenses =
  Cluster.default_config ~replicas:3 ~router:Cluster.Least_loaded ~slots:4
    ~profile:chaos_profile ~defenses ()

let test_chaos_defended_vs_undefended () =
  (* the acceptance pin: under a crash+straggler mix the defended cluster
     holds >= 0.99 availability while the same cluster with every defense
     off is measurably worse — and the accounting identity holds in both *)
  let defended =
    Cluster.run
      (chaos_config { Cluster.default_defenses with Cluster.timeout_s = 20.0 })
      ~cost:(flat_cost ()) chaos_trace
  in
  let undefended =
    Cluster.run (chaos_config Cluster.no_defenses) ~cost:(flat_cost ()) chaos_trace
  in
  Alcotest.(check bool) "identity (defended)" true (Cluster.accounting_ok defended);
  Alcotest.(check bool) "identity (undefended)" true (Cluster.accounting_ok undefended);
  Alcotest.(check bool) "faults actually fired" true
    (defended.Cluster.counters.Cluster.crashes > 0);
  Alcotest.(check bool) "breakers actually tripped" true
    (defended.Cluster.counters.Cluster.breaker_trips > 0);
  Alcotest.(check bool) "defended availability >= 0.99" true
    (defended.Cluster.availability >= 0.99);
  Alcotest.(check bool) "undefended measurably lower" true
    (undefended.Cluster.availability < 0.99);
  Alcotest.(check bool) "defenses strictly help" true
    (defended.Cluster.availability > undefended.Cluster.availability)

(* ------------------------------------------------- accounting properties *)

let prop_accounting_identity =
  (* answered + dropped + failed = arrivals at every seed and fault mix;
     with an unbounded deadline and crash re-queuing on, nothing is ever
     lost (failed = 0) and the whole run is repeat-deterministic *)
  QCheck.Test.make ~name:"availability accounting identity under faults" ~count:30
    QCheck.(triple (int_range 1 1000) (int_range 0 2) (int_range 2 3))
    (fun (seed, mode, replicas) ->
      let profile =
        match mode with
        | 0 -> Cluster.profile_crash ~seed ~mttf:4.0 ~mttr:2.0 ()
        | 1 -> Cluster.profile_straggler ~seed ~mttf:4.0 ~mttr:2.0 ()
        | _ -> Cluster.profile_mixed ~seed ~mttf:4.0 ~mttr:2.0 ()
      in
      let cfg =
        Cluster.default_config ~replicas ~slots:4 ~seed ~profile
          ~defenses:{ Cluster.default_defenses with Cluster.timeout_s = infinity }
          ()
      in
      let trace =
        Scheduler.trace (Scheduler.default_trace ~seed ~rps:4.0 ~requests:16 ())
      in
      let r = Cluster.run cfg ~cost:(flat_cost ()) trace in
      let r' = Cluster.run cfg ~cost:(flat_cost ()) trace in
      Cluster.accounting_ok r
      && r.Cluster.failed = 0
      && r.Cluster.answered = r.Cluster.arrivals - r.Cluster.dropped
      && cluster_digest r = cluster_digest r')

let test_retry_budget_exhaustion () =
  (* a deadline shorter than the prefill makes every attempt time out: the
     bounded retry budget must drain, requests must land in [failed] (not
     hang, not raise), and the identity must still balance *)
  let cfg =
    Cluster.default_config ~replicas:2 ~slots:4
      ~defenses:{ Cluster.default_defenses with Cluster.timeout_s = 0.5; hedge = false }
      ()
  in
  let trace = List.init 6 (fun i -> arrival i (0.2 *. float_of_int i) 8 4) in
  let r = Cluster.run cfg ~cost:(flat_cost ()) trace in
  Alcotest.(check bool) "identity" true (Cluster.accounting_ok r);
  Alcotest.(check int) "nothing answered under an impossible deadline" 0
    r.Cluster.answered;
  Alcotest.(check int) "every request failed" 6 r.Cluster.failed;
  Alcotest.(check bool) "timeouts counted" true (r.Cluster.counters.Cluster.timeouts > 0);
  Alcotest.(check bool) "retries spent" true (r.Cluster.counters.Cluster.retries > 0)

(* A NaN compares false everywhere: as an arrival time it was never
   admitted (the run spun forever), and as [mttf_s] / [timeout_s] it
   quietly switched faults or deadlines off.  [infinity] stays legal.  The
   remaining defense knobs are checked up front too, each with its own
   [Cluster.run] message. *)
let test_nonfinite_knobs_rejected () =
  let cfg = Cluster.default_config ~replicas:2 () in
  let run ?(cfg = cfg) trace = Cluster.run cfg ~cost:(flat_cost ()) trace in
  let raises name msg f =
    Alcotest.check_raises name (Invalid_argument ("Cluster.run: " ^ msg)) (fun () ->
        ignore (f ()))
  in
  let arrival_msg = "arrival time must be finite" in
  raises "nan arrival" arrival_msg (fun () ->
      run [ arrival 0 0.0 8 2; arrival 1 Float.nan 8 2 ]);
  raises "infinite arrival" arrival_msg (fun () -> run [ arrival 0 Float.infinity 8 2 ]);
  let with_timeout t =
    { cfg with Cluster.defenses = { cfg.Cluster.defenses with Cluster.timeout_s = t } }
  in
  let timeout_msg = "timeout must be positive (infinity disables it)" in
  List.iter
    (fun t ->
      raises (Printf.sprintf "timeout %g" t) timeout_msg (fun () ->
          run ~cfg:(with_timeout t) []))
    [ Float.nan; 0.0; -1.0 ];
  let with_mttf m =
    { cfg with Cluster.profile = Cluster.profile_crash ~seed:1 ~mttf:m ~mttr:2.0 () }
  in
  let mttf_msg = "mttf must be positive (infinity disables faults)" in
  List.iter
    (fun m ->
      raises (Printf.sprintf "mttf %g" m) mttf_msg (fun () -> run ~cfg:(with_mttf m) []))
    [ Float.nan; 0.0; -1.0 ];
  let off =
    { (with_mttf Float.infinity) with
      Cluster.defenses = (with_timeout Float.infinity).Cluster.defenses }
  in
  let r = run ~cfg:off (List.init 4 (fun i -> arrival i 0.0 8 2)) in
  Alcotest.(check int) "infinity means off: all answered" 4 r.Cluster.answered;
  (* every other defense knob: one row per value that used to hang the run,
     raise another module's error, fail requests silently, or schedule a
     retry in the past *)
  let dflt = Cluster.default_defenses in
  List.iter
    (fun (name, defenses, msg) ->
      raises name msg (fun () -> run ~cfg:{ cfg with Cluster.defenses } []))
    [
      ("hedge_min_samples 0", { dflt with Cluster.hedge_min_samples = 0 },
       "hedge_min_samples must be positive");
      ("hedge_min_samples -1", { dflt with Cluster.hedge_min_samples = -1 },
       "hedge_min_samples must be positive");
      ("max_retries -1", { dflt with Cluster.max_retries = -1 },
       "max_retries must be non-negative");
      ("breaker_threshold 0", { dflt with Cluster.breaker_threshold = 0 },
       "breaker_threshold must be positive");
      ("backoff nan", { dflt with Cluster.backoff_s = Float.nan },
       "backoff must be finite and non-negative");
      ("backoff inf", { dflt with Cluster.backoff_s = Float.infinity },
       "backoff must be finite and non-negative");
      ("backoff -0.1", { dflt with Cluster.backoff_s = -0.1 },
       "backoff must be finite and non-negative");
      ("backoff jitter -2", { dflt with Cluster.backoff_jitter = -2.0 },
       "backoff jitter must be finite and non-negative");
      ("backoff jitter nan", { dflt with Cluster.backoff_jitter = Float.nan },
       "backoff jitter must be finite and non-negative");
      ("backoff jitter inf", { dflt with Cluster.backoff_jitter = Float.infinity },
       "backoff jitter must be finite and non-negative");
      ("breaker cooldown nan", { dflt with Cluster.breaker_cooldown_s = Float.nan },
       "breaker cooldown must be non-negative");
      ("breaker cooldown -1", { dflt with Cluster.breaker_cooldown_s = -1.0 },
       "breaker cooldown must be non-negative");
      ("health interval 0", { dflt with Cluster.health_interval_s = 0.0 },
       "health interval must be positive (infinity disables it)");
      ("health interval nan", { dflt with Cluster.health_interval_s = Float.nan },
       "health interval must be positive (infinity disables it)");
      ("health interval -1", { dflt with Cluster.health_interval_s = -1.0 },
       "health interval must be positive (infinity disables it)");
    ];
  (* zero and infinity are legal where they mean "at once" and "never" *)
  let edge =
    { dflt with
      Cluster.max_retries = 0;
      backoff_s = 0.0;
      backoff_jitter = 0.0;
      breaker_cooldown_s = Float.infinity;
      health_interval_s = Float.infinity;
      hedge_min_samples = 1 }
  in
  let r =
    run ~cfg:{ cfg with Cluster.defenses = edge } (List.init 4 (fun i -> arrival i 0.0 8 2))
  in
  Alcotest.(check int) "edge values accepted: all answered" 4 r.Cluster.answered

(* ----------------------------------------------------------------- routers *)

let test_round_robin_spreads () =
  let cfg =
    Cluster.default_config ~replicas:2 ~defenses:Cluster.no_defenses ()
  in
  let trace = List.init 4 (fun i -> arrival i 0.0 8 2) in
  let r = Cluster.run cfg ~cost:(flat_cost ()) trace in
  Alcotest.(check int) "all answered" 4 r.Cluster.answered;
  Alcotest.(check (array int)) "alternating dispatch" [| 2; 2 |]
    r.Cluster.served_per_replica

let test_static_batches_per_replica () =
  (* round-robin puts ids 0,2,4 on r0 and 1,3 on r1, all at t=0: each
     replica prefills a batch of two (1.0 s) and decodes it (2 x 0.1 s);
     r0's leftover id 4 then runs as a partial tail batch, 1.2 -> 2.4 *)
  let cfg =
    Cluster.default_config ~replicas:2 ~policy:(Scheduler.Static 2)
      ~defenses:Cluster.no_defenses ()
  in
  let r = Cluster.run cfg ~cost:(flat_cost ()) (List.init 5 (fun i -> arrival i 0.0 8 2)) in
  Alcotest.(check int) "all answered" 5 r.Cluster.answered;
  Alcotest.(check (array int)) "per replica" [| 3; 2 |] r.Cluster.served_per_replica;
  Alcotest.(check (float 1e-12)) "makespan" 2.4 r.Cluster.makespan_s;
  Alcotest.check_raises "batch"
    (Invalid_argument "Cluster.run: batch size must be positive") (fun () ->
      ignore
        (Cluster.run { cfg with Cluster.policy = Scheduler.Static 0 } ~cost:(flat_cost ()) []))

let test_other_routers_answer_everything () =
  let trace = Scheduler.trace (Scheduler.default_trace ~seed:4 ~rps:6.0 ~requests:20 ()) in
  List.iter
    (fun router ->
      let cfg =
        Cluster.default_config ~replicas:3 ~router ~slots:4
          ~defenses:Cluster.no_defenses ()
      in
      let r = Cluster.run cfg ~cost:(flat_cost ()) trace in
      Alcotest.(check int)
        (Printf.sprintf "%s answers everything" (Cluster.router_name router))
        20 r.Cluster.answered;
      Alcotest.(check bool)
        (Printf.sprintf "%s identity" (Cluster.router_name router))
        true (Cluster.accounting_ok r))
    [ Cluster.Least_loaded; Cluster.Power_of_two ]

let suite =
  [
    ( "cluster",
      [
        Alcotest.test_case "event queue basics" `Quick test_event_queue_basics;
        Alcotest.test_case "event queue stable ties" `Quick test_event_queue_stable_ties;
        qtest prop_event_queue_matches_sorted_oracle;
        Alcotest.test_case "golden replay" `Quick test_golden_replay;
        Alcotest.test_case "golden defended" `Quick test_golden_defended;
        Alcotest.test_case "pool-invariant every profile" `Quick
          test_pool_invariant_every_profile;
        Alcotest.test_case "chaos defended vs undefended" `Quick
          test_chaos_defended_vs_undefended;
        qtest prop_accounting_identity;
        Alcotest.test_case "retry budget exhaustion" `Quick test_retry_budget_exhaustion;
        Alcotest.test_case "non-finite knobs rejected" `Quick test_nonfinite_knobs_rejected;
        Alcotest.test_case "round-robin spreads" `Quick test_round_robin_spreads;
        Alcotest.test_case "static batches per replica" `Quick
          test_static_batches_per_replica;
        Alcotest.test_case "other routers answer everything" `Quick
          test_other_routers_answer_everything;
      ] );
  ]
