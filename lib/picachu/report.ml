let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  List.iter
    (fun r ->
      if List.length r <> cols then invalid_arg "Report.table: ragged row")
    rows;
  let widths = Array.make cols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)))
    all;
  let print_row r =
    List.iteri
      (fun i cell ->
        Printf.printf "%s%s" cell (String.make (widths.(i) - String.length cell + 2) ' '))
      r;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter print_row rows

let fmt_f v =
  if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v else Printf.sprintf "%.3g" v

let fmt_x v = Printf.sprintf "%.2fx" v
let fmt_pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

let fmt_delta v =
  if Float.abs v < 0.005 then "0.00"
  else if v > 0.0 then Printf.sprintf "+%.2f" v
  else Printf.sprintf "%.2f" v

(* Fleet-level serving metrics: the percentile table plus one summary line.
   Milliseconds for the per-request rows — tail latencies are the headline
   number, and sub-second values render illegibly in seconds. *)
let serve_table (f : Scheduler.fleet) =
  let ms v = Printf.sprintf "%.2f" (1000.0 *. v) in
  table
    ~header:[ "metric"; "p50"; "p95"; "p99" ]
    [
      [ "ttft (ms)"; ms f.Scheduler.ttft.Scheduler.p50; ms f.Scheduler.ttft.Scheduler.p95;
        ms f.Scheduler.ttft.Scheduler.p99 ];
      [ "latency (ms)"; ms f.Scheduler.latency.Scheduler.p50;
        ms f.Scheduler.latency.Scheduler.p95; ms f.Scheduler.latency.Scheduler.p99 ];
    ];
  Printf.printf "completed %d  dropped %d  makespan %.3f s  throughput %.1f tok/s\n"
    (List.length f.Scheduler.completions)
    f.Scheduler.dropped f.Scheduler.makespan_s f.Scheduler.throughput_tps;
  Printf.printf "tiers: %s\n"
    (String.concat "  "
       (List.map
          (fun (t, k) -> Printf.sprintf "%s=%d" (Serving.tier_name t) k)
          f.Scheduler.tiers))

(* Cluster-level serving metrics: the percentile table, the availability
   accounting identity (printed so CI can grep it), fault and defense
   counters, and the per-replica completion spread. *)
let cluster_table (r : Cluster.report) =
  let ms v = Printf.sprintf "%.2f" (1000.0 *. v) in
  table
    ~header:[ "metric"; "p50"; "p95"; "p99" ]
    [
      [ "ttft (ms)"; ms r.Cluster.ttft.Scheduler.p50; ms r.Cluster.ttft.Scheduler.p95;
        ms r.Cluster.ttft.Scheduler.p99 ];
      [ "latency (ms)"; ms r.Cluster.latency.Scheduler.p50;
        ms r.Cluster.latency.Scheduler.p95; ms r.Cluster.latency.Scheduler.p99 ];
    ];
  Printf.printf "arrivals %d  answered %d  dropped %d  failed %d  (identity %s)\n"
    r.Cluster.arrivals r.Cluster.answered r.Cluster.dropped r.Cluster.failed
    (if Cluster.accounting_ok r then "ok" else "VIOLATED");
  Printf.printf
    "availability %.4f  goodput %.1f tok/s  amplification %.2fx  makespan %.3f s\n"
    r.Cluster.availability r.Cluster.goodput_tps r.Cluster.amplification
    r.Cluster.makespan_s;
  let c = r.Cluster.counters in
  Printf.printf "faults: crashes=%d hangs=%d slowdowns=%d\n" c.Cluster.crashes
    c.Cluster.hangs c.Cluster.slowdowns;
  Printf.printf
    "defense: requeued=%d retries=%d timeouts=%d hedges=%d hedge-wins=%d \
     breaker-trips=%d probes=%d\n"
    c.Cluster.requeued c.Cluster.retries c.Cluster.timeouts c.Cluster.hedges
    c.Cluster.hedge_wins c.Cluster.breaker_trips c.Cluster.probes;
  Printf.printf "replicas served: %s\n"
    (String.concat "  "
       (Array.to_list
          (Array.mapi (fun i k -> Printf.sprintf "r%d=%d" i k) r.Cluster.served_per_replica)));
  Printf.printf "tiers: %s\n"
    (String.concat "  "
       (List.map
          (fun (t, k) -> Printf.sprintf "%s=%d" (Serving.tier_name t) k)
          r.Cluster.tiers))

let search_effort_line (c : Picachu_cgra.Mapper.counters) =
  Printf.printf "mapper effort: ii-attempts %d  backtracks %d\n"
    c.Picachu_cgra.Mapper.ii_attempts c.Picachu_cgra.Mapper.backtracks

(* Per-pass pipeline instrumentation, one row per pass in pipeline order.
   Counters render inline ("ii-attempts=147 backtracks=9") so the table
   keeps a fixed arity whatever each pass tallies. *)
let pass_table (stats : Pipeline.pass_stats list) =
  table
    ~header:[ "pass"; "runs"; "wall-ms"; "counters" ]
    (List.map
       (fun (s : Pipeline.pass_stats) ->
         [
           s.Pipeline.pass;
           string_of_int s.Pipeline.runs;
           Printf.sprintf "%.2f" (1000.0 *. s.Pipeline.wall_s);
           (match s.Pipeline.counters with
           | [] -> "-"
           | cs ->
               String.concat " "
                 (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs));
         ])
       stats)

(* Co-design search rendering: the accepted-move trace (the path the
   annealer walked), totals, the discovered-vs-reference comparison, and a
   greppable verdict line for the CI smoke. *)
let codesign_table (r : Codesign.result) =
  section "HW/SW co-design search (simulated annealing)";
  Printf.printf "budget %d candidates  batch %d  seed %d  objective %s\n"
    r.Codesign.config.Codesign.iters r.Codesign.config.Codesign.batch
    r.Codesign.config.Codesign.seed
    (match r.Codesign.config.Codesign.objective with
    | Codesign.Perf_per_area -> "perf/area"
    | Codesign.Throughput_under_cap cap ->
        Printf.sprintf "geomean throughput under %.3f mm2" cap);
  let accepted =
    List.filter (fun (e : Codesign.trace_entry) -> e.Codesign.accepted) r.Codesign.trace
  in
  table
    ~header:[ "step"; "move"; "arch"; "score"; "best" ]
    (List.map
       (fun (e : Codesign.trace_entry) ->
         [
           string_of_int e.Codesign.step;
           e.Codesign.move;
           e.Codesign.arch_name;
           (match e.Codesign.score with
           | Some s -> Printf.sprintf "%.3f" s
           | None -> "-");
           Printf.sprintf "%.3f" e.Codesign.best_score;
         ])
       accepted);
  Printf.printf "evaluated %d  accepted %d  infeasible %d\n"
    r.Codesign.evaluated r.Codesign.accepted_count r.Codesign.infeasible;
  let p = r.Codesign.best and q = r.Codesign.init_point in
  table
    ~header:[ "arch"; "area mm2"; "geomean elems/cyc"; "perf/area" ]
    [
      [
        q.Explore.arch_name ^ " (reference)";
        Printf.sprintf "%.3f" q.Explore.area_mm2;
        Printf.sprintf "%.3f" q.Explore.geomean_throughput;
        Printf.sprintf "%.3f" q.Explore.perf_per_area;
      ];
      [
        p.Explore.arch_name ^ " (discovered)";
        Printf.sprintf "%.3f" p.Explore.area_mm2;
        Printf.sprintf "%.3f" p.Explore.geomean_throughput;
        Printf.sprintf "%.3f" p.Explore.perf_per_area;
      ];
    ];
  Printf.printf "codesign: best perf/area %.3f vs reference %.3f (%s)\n"
    p.Explore.perf_per_area q.Explore.perf_per_area
    (if p.Explore.perf_per_area > q.Explore.perf_per_area then
       "beats reference"
     else "does not beat reference")
