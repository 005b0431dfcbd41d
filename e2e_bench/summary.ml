(* Metrics of one workload from the JSON lines its rounds printed. *)

type better = [ `Lower | `Higher ]

type metric = {
  name : string;
  unit_ : string;
  better : better;
  value : float;
  rounds : float list;  (** the metric per round, for its spread *)
  n : int;  (** samples behind [value]: ops, or rounds for per-process metrics *)
  exact : bool;  (** a modelled value: deterministic for a given seed *)
  raw : float;  (** the value before host-speed scaling; nan when not scaled *)
}

(* What a user of the toolchain sees: how long set-up and each job take,
   and how much memory a job needs.  There is no tail percentile: a run of
   compile-roster holds about twenty whole-roster compiles, so no
   percentile above the median has ten samples beyond it.  The p90 is
   still printed and recorded, with its sample count. *)
let end_to_end : (string * string * better) list =
  [
    ("setup_s", "s", `Lower);
    ("ops_per_s", "1/s", `Higher);
    ("op_p50_ms", "ms", `Lower);
    ("peak_rss_mb", "MB", `Lower);
  ]

(* Layers whose self time the traced run reports, as a share of op time.
   A layer a workload does not exercise reads 0. *)
let layers =
  [
    "op.self";
    "precision.select";
    "compiler.self";
    "pipeline.vectorize";
    "pipeline.unroll";
    "pipeline.extract";
    "pipeline.fuse";
    "pipeline.schedule";
    "verify.check";
    "hw_sim.run";
    "interp.run";
    "codesign.self";
    "serving.cost";
    "scheduler.self";
    "cluster.self";
    "approx.vec";
    "surrogate.self";
  ]

(* Work counted per op; 0 where a workload does not exercise the layer. *)
let per_op_counts =
  [
    "precision.formats_tried";
    "mapper.ii_attempts";
    "mapper.backtracks";
    "mapper.warm_hits";
    "mapper.warm_rejects";
    "compiler.cache_hits";
    "compiler.cache_misses";
    "compiler.compile_count";
    "codesign.infeasible";
    "serving.cost_calls";
    "approx.vec_calls";
    "approx.scalar_calls";
    "cluster.dispatches";
    "cluster.hedges";
    "cluster.hedge_wins";
    "cluster.retries";
    "cluster.timeouts";
    "cluster.requeued";
    "cluster.breaker_trips";
  ]

let model_metrics : (string * string * better) list =
  [
    ("model.sum_ii", "cycles", `Lower);
    ("model.perf_per_area", "elem/cycle/mm2", `Higher);
    ("model.ttft_p95_s", "sim_s", `Lower);
    ("model.availability", "ratio", `Higher);
  ]

let per_layer : (string * string) list =
  List.map (fun l -> (l ^ "_pct", "%")) layers
  @ List.map (fun c -> (c, "count")) per_op_counts
  @ [
      ("cluster.amplification", "ratio");
      ("mapper.warm_hit_ratio", "ratio");
      ("compiler.cache_hit_ratio", "ratio");
      ("compiler.hit_probe_us", "us");
      ("gc.alloc_kw", "kw");
      ("op.traced_ms", "ms");
      ("trace.overhead_pct", "%");
      ("scheduler.scaling_exp", "exponent");
      ("cluster.scaling_exp", "exponent");
    ]
  @ List.map (fun (n, u, _) -> (n, u)) model_metrics

(* ---------------------------------------------------------------- input *)

let num k j = Json.to_num (Json.member k j)
let nums k j = List.map Json.to_num (Json.to_list (Json.member k j))
let traced r = Json.to_bool (Json.member "traced" r)
let sum = List.fold_left ( +. ) 0.0

let metric ?(exact = false) ?(rounds = []) ?(raw = Float.nan) ~n (name, unit_, better) value =
  { name; unit_; better; value; rounds; n; exact; raw }

(* Host-speed scaling.  The shared host this benchmark runs on goes through
   phases, minutes long, in which everything — set-up included — runs up to
   1.6 times slower.  Each round therefore times a fixed reference loop
   ({!Worker.reference_ms}), and its times are scaled by the loop's nominal
   over its measured duration: they read as on the baseline host at its
   usual speed.  Over ten seeds this cut the spread of ops/s on
   compile-roster from 9.9% to 1.6%, and of p90 from 6.6% to 0.7%.  The
   raw values are kept beside the scaled ones. *)
let reference_nominal_ms = 8.0

let scale r = reference_nominal_ms /. Stat.median (nums "ref_ms" r)
let raw_ops_ms r = List.map (fun ns -> ns /. 1e6) (nums "ops_ns" r)
let ops_ms r = List.map (( *. ) (scale r)) (raw_ops_ms r)

(* ------------------------------------------------------------- timed run *)

let timed rounds =
  let n_rounds = List.length rounds in
  let measure ops_of setup_of =
    let all = List.concat_map ops_of rounds in
    let per_round f = List.map (fun r -> f (ops_of r)) rounds in
    let throughput ops = float (List.length ops) /. (sum ops /. 1e3) in
    let setups = List.map setup_of rounds in
    [
      ("setup_s", Stat.median setups, setups, n_rounds);
      ("ops_per_s", Stat.median (per_round throughput), per_round throughput, List.length all);
      ("op_p50_ms", Stat.percentile all 50.0, per_round (fun o -> Stat.percentile o 50.0), List.length all);
      ("op_p90_ms", Stat.percentile all 90.0, per_round (fun o -> Stat.percentile o 90.0), List.length all);
    ]
  in
  let scaled = measure ops_ms (fun r -> num "setup_s" r *. scale r) in
  let raw = measure raw_ops_ms (num "setup_s") in
  let rss = List.map (num "peak_rss_mb") rounds in
  let refs = List.map (fun r -> Stat.median (nums "ref_ms" r)) rounds in
  let def name =
    if name = "op_p90_ms" then ("op_p90_ms", "ms", `Lower)
    else List.find (fun (m, _, _) -> m = name) end_to_end
  in
  List.map2
    (fun (name, value, rounds, n) (_, raw, _, _) -> metric (def name) value ~raw ~rounds ~n)
    scaled raw
  @ [
      metric ("peak_rss_mb", "MB", `Lower) (Stat.median rss) ~rounds:rss ~n:n_rounds;
      metric ("host.reference_ms", "ms", `Lower) (Stat.median refs) ~rounds:refs ~n:n_rounds;
    ]

(* Modelled-design values: each round folds its ops, and the first
   [model_rounds] rounds fold again the same way — a minimum stays a
   minimum.  Every run has that many rounds, so for a given seed the value
   is the same whatever the host's speed. *)
let model_rounds = 2

let modelled (w : Jobs.t) rounds =
  let first = List.filteri (fun i _ -> i < model_rounds) rounds in
  List.map
    (fun (m : Jobs.model_metric) ->
      let per_round = List.map (fun r -> num m.m_name (Json.member "model" r)) first in
      let value =
        match m.fold with
        | Jobs.Min -> List.fold_left Float.min Float.infinity per_round
        | Median -> Stat.median per_round
      in
      metric ~exact:true (m.m_name, m.m_unit, m.m_better) value ~rounds:per_round
        ~n:(List.length first))
    w.model_metrics

(* ------------------------------------------------------------ traced run *)

let op_spans r =
  List.filter_map
    (fun j ->
      let s = Trace.span_of_json j in
      if s.parent < 0 then Some s else None)
    (Json.to_list (Json.member "spans" r))

let layer_field field name r =
  match Json.member_opt name (Json.member "layers" r) with
  | Some l -> num field l
  | None -> 0.0

(* Per-layer metrics from the traced rounds; the untraced rounds of the
   same run give the tracing overhead. *)
let layered (w : Jobs.t) rounds =
  let trounds, untraced = List.partition traced rounds in
  let op_total_ns =
    sum (List.concat_map (fun r -> List.map (fun s -> Int64.to_float (Trace.dur_ns s)) (op_spans r)) trounds)
  in
  let n_ops = List.length (List.concat_map op_spans trounds) in
  let per_op x = if n_ops = 0 then 0.0 else x /. float n_ops in
  let total f = sum (List.map f trounds) in
  let counter k r = match Json.member_opt k (Json.member "counters" r) with Some v -> Json.to_num v | None -> 0.0 in
  let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
  let scaled_probes_us r = List.map (fun ns -> ns *. scale r /. 1e3) (nums "probe_ns" r) in
  let scaling k =
    match List.filter_map (fun r -> Json.member_opt k (Json.member "scaling" r)) trounds with
    | [] -> 0.0
    | l -> Stat.median (List.map Json.to_num l)
  in
  let traced_p50 = Stat.median (List.concat_map ops_ms trounds) in
  let values =
    List.map
      (fun l -> (l ^ "_pct", 100.0 *. total (layer_field "ns" l) /. op_total_ns))
      layers
    @ List.map
        (fun c ->
          let v =
            match c with
            | "serving.cost_calls" -> total (layer_field "calls" "serving.cost")
            | "approx.vec_calls" -> total (layer_field "calls" "approx.vec")
            | c -> total (counter c)
          in
          (c, per_op v))
        per_op_counts
    @ [
        ("cluster.amplification", per_op (total (counter "cluster.amplification")));
        ( "mapper.warm_hit_ratio",
          ratio (total (counter "mapper.warm_hits")) (total (counter "mapper.warm_rejects")) );
        ( "compiler.cache_hit_ratio",
          ratio (total (counter "compiler.cache_hits")) (total (counter "compiler.cache_misses")) );
        ("compiler.hit_probe_us", Stat.median (List.concat_map scaled_probes_us trounds));
        ("gc.alloc_kw", per_op (total (fun r -> sum (nums "op_alloc_w" r))) /. 1e3);
        ("op.traced_ms", traced_p50);
        ( "trace.overhead_pct",
          100.0 *. ((traced_p50 /. Stat.median (List.concat_map ops_ms untraced)) -. 1.0) );
        ("scheduler.scaling_exp", scaling "scheduler.scaling_exp");
        ("cluster.scaling_exp", scaling "cluster.scaling_exp");
      ]
  in
  let model = modelled w rounds in
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) model with
      | Some m -> m
      | None ->
          let better =
            match List.find_opt (fun (n, _, _) -> n = name) model_metrics with
            | Some (_, _, b) -> b
            | None -> `Lower
          in
          metric (name, unit_, better) (Option.value ~default:0.0 (List.assoc_opt name values)) ~n:n_ops)
    per_layer

(* Per-layer table: self time per op, share, allocation and calls.  The
   last line is the share of op time the layers' positive self times
   cover: above 100% means some layer was charged time twice. *)
let print_layer_table trounds =
  let spans = List.concat_map op_spans trounds in
  let ops = List.length spans in
  let op_total = sum (List.map (fun s -> Int64.to_float (Trace.dur_ns s)) spans) in
  let layer_names =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map fst (Json.to_obj (Json.member "layers" r))) trounds)
  in
  let rows =
    List.map
      (fun l ->
        let t f = sum (List.map (layer_field f l) trounds) in
        (l, t "ns", t "alloc_w", t "calls"))
      layer_names
  in
  let grand = sum (List.map (fun (_, ns, _, _) -> ns) rows) in
  Printf.printf "  %-22s %12s %8s %12s %12s\n" "layer (self)" "ms/op" "share" "kw/op" "calls/op";
  List.iter
    (fun (l, ns, alloc, calls) ->
      let per x = x /. float (max 1 ops) in
      Printf.printf "  %-22s %12.4f %7.2f%% %12.2f %12.1f\n" l (per ns /. 1e6)
        (100.0 *. ns /. grand) (per alloc /. 1e3) (per calls))
    (List.sort
       (fun (_, a, _, _) (_, b, _, _) -> Float.compare b a)
       (List.filter (fun (_, _, _, calls) -> calls > 0.0) rows));
  Printf.printf "  layers account for %.2f%% of op time over %d traced ops\n"
    (100.0 *. sum (List.map (fun (_, ns, _, _) -> Float.max 0.0 ns) rows) /. op_total)
    ops

(* --------------------------------------------------------------- output *)

let print_table title metrics =
  Printf.printf "%s\n" title;
  Printf.printf "  %-28s %14s %-15s %14s %14s %14s %7s\n" "metric" "value" "unit" "unscaled" "q1" "q3"
    "n";
  List.iter
    (fun m ->
      let q1, q3 =
        match m.rounds with
        | [] -> ("-", "-")
        | r ->
            let q1, q3 = Stat.quartiles r in
            (Printf.sprintf "%.6g" q1, Printf.sprintf "%.6g" q3)
      in
      let raw = if Float.is_nan m.raw then "-" else Printf.sprintf "%.6g" m.raw in
      Printf.printf "  %-28s %14.6g %-15s %14s %14s %14s %7d\n" m.name m.value m.unit_ raw q1 q3 m.n)
    metrics

let better_name = function `Lower -> "lower" | `Higher -> "higher"

let metric_to_json m =
  let q1, q3 = Stat.quartiles m.rounds in
  ( m.name,
    Json.Obj
      [
        ("value", Num m.value);
        ("unscaled", Num m.raw);
        ("unit", Str m.unit_);
        ("better", Str (better_name m.better));
        ("q1", Num q1);
        ("q3", Num q3);
        ("n", Num (float m.n));
        ("exact", Bool m.exact);
        ("rounds", Json.nums m.rounds);
      ] )
