(* End-to-end workload benchmark.

     workloads.exe run --workload W|all [--seed S] [--seconds T] [--trace 0|1]
                       [--sets N] [--out FILE] [--trace-out FILE]
                       [--commit C] [--machine M]
     workloads.exe compare BASE.json[@K] NEW.json[@K] [--bounds BENCHMARK.json]
     workloads.exe smoke [--benchmark BENCHMARK.json]

   [run] gives each workload about T seconds of ops, in rounds.  A round is
   a fresh worker process running a fixed number of one workload's ops;
   workloads take turns, their order rotating, so that slow spells of the
   host hit every workload alike.  With [--trace 1] the rounds alternate
   between untraced and traced, and the run reports per-layer metrics and
   the tracing overhead.  The last line of output is one JSON object:
   correct, attempted, failed and the metrics.

   Every round runs on a pool of one domain.  On a shared two-vCPU VM the
   idle second domain of a two-domain pool stalls each stop-the-world minor
   collection: the same compile ops varied by 9-67% between identical runs
   there, against 3-4% on one domain, and ran 10-60% slower. *)

(* ------------------------------------------------------------ arguments *)

let parse_flags args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> List.rev acc
    | k :: _ -> failwith ("unexpected argument " ^ k)
  in
  go [] args

let flag flags k ~default conv =
  match List.assoc_opt k flags with
  | None -> default
  | Some v -> (
      match conv v with Some x -> x | None -> failwith (Printf.sprintf "bad value for --%s: %s" k v))

let bool_of_01 = function "0" -> Some false | "1" -> Some true | _ -> None

(* -------------------------------------------------------------- rounds *)

let last_line s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "") |> List.rev
  |> function
  | l :: _ -> l
  | [] -> ""

type round_spec = { workload : Jobs.t; round : int; traced : bool; ops : int }

(* Run one round in a fresh process and wait for it. *)
let spawn ~seed ~smoke (r : round_spec) =
  let env =
    Array.append
      [| "PICACHU_DOMAINS=1" |]
      (Array.of_list
         (List.filter
            (fun e -> not (String.starts_with ~prefix:"PICACHU_DOMAINS=" e))
            (Array.to_list (Unix.environment ()))))
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let spawned_ns = Trace.now_ns () in
  let args =
    [
      "worker";
      "--workload"; r.workload.Jobs.name;
      "--seed"; string_of_int seed;
      "--round"; string_of_int r.round;
      "--ops"; string_of_int r.ops;
      "--smoke"; (if smoke then "1" else "0");
      "--trace"; (if r.traced then "1" else "0");
      "--spawned-ns"; Int64.to_string spawned_ns;
    ]
  in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let output =
    let ic = Unix.in_channel_of_descr out_r in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Json.of_string (last_line output)
  | _, (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c) ->
      failwith (Printf.sprintf "%s round %d: worker exited with status %d" r.workload.name r.round c)

let rotate l k =
  let n = List.length l in
  if n = 0 then l
  else
    let k = k mod n in
    List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

(* One set: rounds of each workload until its ops have taken [seconds] —
   another round starts only if one more of average length still fits —
   and at least [min_rounds].  Workloads take turns, their order rotating.
   A traced run alternates untraced and traced rounds and ends on a traced
   one.  Returns each workload's round results in round order.

   A discarded one-op round comes first: a host that was idle runs the
   first second of work markedly slower. *)
let run_set ~workloads ~seed ~seconds ~trace ~smoke ~ops ~min_rounds =
  if not smoke then
    ignore (spawn ~seed ~smoke { workload = List.hd workloads; round = -1; traced = false; ops = 1 });
  let state = List.map (fun (w : Jobs.t) -> (w, ref [], ref 0.0)) workloads in
  let is_traced round = trace && (min_rounds = 1 || round mod 2 = 1) in
  let wants_more (_, rounds, spent) =
    let k = List.length !rounds in
    k < min_rounds
    || not (trace = is_traced (k - 1))
    || !spent +. (!spent /. float k) <= seconds
  in
  let cycle = ref 0 in
  while List.exists wants_more state do
    List.iter
      (fun ((w : Jobs.t), rounds, spent) ->
        let round = List.length !rounds in
        let r = spawn ~seed ~smoke { workload = w; round; traced = is_traced round; ops = ops w } in
        spent := !spent +. ((Summary.sum (Summary.nums "ops_ns" r) +. Summary.num "failed_ns" r) /. 1e9);
        rounds := !rounds @ [ r ])
      (rotate (List.filter wants_more state) !cycle);
    incr cycle
  done;
  List.map (fun (w, rounds, _) -> (w, !rounds)) state

type workload_result = {
  w : Jobs.t;
  metrics : Summary.metric list;
  attempted : int;
  failed : int;
  trace_groups : (string * int * Trace.span list) list;
}

let summarize ?(print = true) ~trace (w, rounds) =
  let total k = List.fold_left (fun acc r -> acc + int_of_float (Summary.num k r)) 0 rounds in
  let traced = List.filter Summary.traced rounds in
  let metrics =
    if trace then Summary.layered w rounds else Summary.timed rounds @ Summary.modelled w rounds
  in
  let trace_groups =
    List.map
      (fun r ->
        ( w.Jobs.name,
          int_of_float (Summary.num "round" r),
          List.map Trace.span_of_json (Json.to_list (Json.member "spans" r)) ))
      traced
  in
  if print then begin
    if trace then begin
      Printf.printf "\n%s: per-layer self time (%d traced rounds, one domain)\n" w.name
        (List.length traced);
      Summary.print_layer_table traced
    end;
    Summary.print_table
      (Printf.sprintf "\n%s: %d ops attempted, %d failed, %d re-run on two domains, %d rounds"
         w.name (total "attempted") (total "failed") (total "pool_checked") (List.length rounds))
      metrics
  end;
  { w; metrics; attempted = total "attempted"; failed = total "failed"; trace_groups }

(* The last line of output: the metrics the contract names, by name. *)
let result_line ~trace results =
  let wanted = if trace then List.map fst Summary.per_layer else List.map (fun (n, _, _) -> n) Summary.end_to_end in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 results in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 results in
  let single = match results with [ _ ] -> true | _ -> false in
  let metrics =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (m : Summary.metric) ->
            if List.mem m.name wanted then
              Some
                ( (if single then m.name else r.w.name ^ "." ^ m.name),
                  Json.Obj [ ("value", Num m.value); ("unit", Str m.unit_) ] )
            else None)
          r.metrics)
      results
  in
  Json.Obj
    [
      ("correct", Bool (failed = 0 && attempted > 0));
      ("attempted", Num (float attempted));
      ("failed", Num (float failed));
      ("metrics", Obj metrics);
    ]

let machine_tag () =
  let model =
    match open_in "/proc/cpuinfo" with
    | exception Sys_error _ -> "unknown cpu"
    | ic ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> "unknown cpu"
          | l when String.starts_with ~prefix:"model name" l -> (
              match String.index_opt l ':' with
              | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
              | None -> scan ())
          | _ -> scan ()
        in
        Fun.protect ~finally:(fun () -> close_in ic) scan
  in
  Printf.sprintf "%s, %d cores" model (Domain.recommended_domain_count ())

let set_to_json ~meta results =
  Json.Obj
    [
      ("meta", Obj meta);
      ( "workloads",
        Obj
          (List.map
             (fun r ->
               ( r.w.Jobs.name,
                 Json.Obj
                   [
                     ("why", Str r.w.why);
                     ("attempted", Num (float r.attempted));
                     ("failed", Num (float r.failed));
                     ("metrics", Obj (List.map Summary.metric_to_json r.metrics));
                   ] ))
             results) );
    ]

let ensure_parent_dir path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let cmd_run flags =
  let workload = flag flags "workload" ~default:"all" Option.some in
  let seed = flag flags "seed" ~default:1 int_of_string_opt in
  let seconds = flag flags "seconds" ~default:20.0 float_of_string_opt in
  let trace = flag flags "trace" ~default:false bool_of_01 in
  let sets = flag flags "sets" ~default:1 int_of_string_opt in
  let workloads =
    if workload = "all" then Jobs.all
    else
      match Jobs.find workload with
      | Some w -> [ w ]
      | None -> failwith ("unknown workload " ^ workload)
  in
  if sets < 1 || seconds <= 0.0 then failwith "sets and seconds must be positive";
  let all_sets =
    List.init sets (fun _ ->
        run_set ~workloads ~seed ~seconds ~trace ~smoke:false
          ~ops:(fun w -> w.Jobs.round_ops)
          ~min_rounds:Summary.model_rounds
        |> List.map (summarize ~trace))
  in
  let last = List.nth all_sets (sets - 1) in
  if trace then begin
    let path =
      flag flags "trace-out" ~default:(Printf.sprintf ".bench_out/trace-%s.json" workload) Option.some
    in
    ensure_parent_dir path;
    Json.write_file path (Trace.chrome_trace (List.concat_map (fun r -> r.trace_groups) last));
    Printf.printf "\nChrome trace written to %s\n" path
  end;
  Option.iter
    (fun path ->
      let meta =
        [
          ("seed", Json.Num (float seed));
          ("seconds", Num seconds);
          ("pool", Num 1.0);
          ("trace", Bool trace);
          ("commit", Str (flag flags "commit" ~default:"unknown" Option.some));
          ("machine", Str (flag flags "machine" ~default:(machine_tag ()) Option.some));
        ]
      in
      Json.write_file path (Json.Obj [ ("sets", Arr (List.map (set_to_json ~meta) all_sets)) ]);
      Printf.printf "Results written to %s\n" path)
    (List.assoc_opt "out" flags);
  print_endline (Json.to_string (result_line ~trace last))

let cmd_worker flags =
  let name = flag flags "workload" ~default:"" Option.some in
  let workload =
    match Jobs.find name with Some w -> w | None -> failwith ("unknown workload " ^ name)
  in
  let config =
    {
      Worker.workload;
      seed = flag flags "seed" ~default:1 int_of_string_opt;
      round = flag flags "round" ~default:0 int_of_string_opt;
      ops = flag flags "ops" ~default:workload.round_ops int_of_string_opt;
      smoke = flag flags "smoke" ~default:false bool_of_01;
      traced = flag flags "trace" ~default:false bool_of_01;
      spawned_ns = flag flags "spawned-ns" ~default:(Trace.now_ns ()) Int64.of_string_opt;
    }
  in
  print_endline (Json.to_string (Worker.run config))

let cmd_compare base next flags =
  let bounds =
    Compare.bounds_of (Json.read_file (flag flags "bounds" ~default:"BENCHMARK.json" Option.some))
  in
  let rows = Compare.rows ~bounds (Compare.load base) (Compare.load next) in
  Compare.print_rows rows;
  if List.exists (fun r -> r.Compare.verdict = Compare.Worse) rows then exit 1

(* Every workload at two ops and reduced sizes, then one traced op each:
   the output must name exactly the metrics BENCHMARK.json lists, with
   their units, and no op may fail. *)
let cmd_smoke flags =
  let benchmark = Json.read_file (flag flags "benchmark" ~default:"BENCHMARK.json" Option.some) in
  let listed key =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
      (Json.to_list (Json.member key benchmark))
    |> List.sort compare
  in
  let run ~trace ~ops =
    run_set ~workloads:Jobs.all ~seed:1 ~seconds:0.0 ~trace ~smoke:true
      ~ops:(fun _ -> ops) ~min_rounds:1
    |> List.map (summarize ~print:false ~trace)
  in
  let problems = ref [] in
  let check ~key results =
    List.iter
      (fun r ->
        if r.failed > 0 then problems := Printf.sprintf "%s: %d ops failed" r.w.name r.failed :: !problems;
        let printed =
          List.filter_map
            (fun (name, _) ->
              Option.map
                (fun (m : Summary.metric) -> (name, m.unit_))
                (List.find_opt (fun (m : Summary.metric) -> m.name = name) r.metrics))
            (listed key)
        in
        if printed <> listed key then
          problems := Printf.sprintf "%s: %s metrics differ from BENCHMARK.json" r.w.name key :: !problems)
      results
  in
  check ~key:"end_to_end" (run ~trace:false ~ops:2);
  check ~key:"per_layer" (run ~trace:true ~ops:1);
  let declared key = List.sort compare key in
  if declared (List.map (fun (n, u, _) -> (n, u)) Summary.end_to_end) <> listed "end_to_end" then
    problems := "end-to-end metrics differ from BENCHMARK.json" :: !problems;
  if declared Summary.per_layer <> listed "per_layer" then
    problems := "per-layer metrics differ from BENCHMARK.json" :: !problems;
  match !problems with
  | [] -> print_endline "smoke: ok"
  | l ->
      List.iter prerr_endline (List.rev l);
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> cmd_run (parse_flags rest)
  | "worker" :: rest -> cmd_worker (parse_flags rest)
  | "compare" :: base :: next :: rest -> cmd_compare base next (parse_flags rest)
  | "smoke" :: rest -> cmd_smoke (parse_flags rest)
  | _ ->
      prerr_endline
        "usage: workloads.exe run --workload W|all [--seed S] [--seconds T] [--trace 0|1] ...\n\
        \       workloads.exe compare BASE.json[@K] NEW.json[@K] [--bounds BENCHMARK.json]\n\
        \       workloads.exe smoke [--benchmark BENCHMARK.json]";
      exit 2
