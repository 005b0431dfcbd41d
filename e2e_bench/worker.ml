(* One round: a fresh process sets up one workload and runs a fixed number
   of its ops in a closed loop — one op in flight, the next starting when
   the last one is checked.  It prints one JSON line for the coordinator.

   A seeded 1-in-16 subset of ops is re-run on a pool of two domains (the
   round itself runs on one); its output digest must match, since results
   are bit-identical across pool sizes.  A mismatch fails the op. *)

open Picachu
module Parallel = Picachu_parallel.Parallel
module Mapper = Picachu_cgra.Mapper
module Kernels = Picachu_ir.Kernels
module Rng = Picachu_tensor.Rng

type config = {
  workload : Jobs.t;
  seed : int;
  round : int;
  ops : int;
  smoke : bool;
  traced : bool;
  spawned_ns : int64;  (** when the coordinator spawned this process *)
}

(* VmHWM: the process's peak resident set, in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.0)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Library-wide counters the traced run differences around each op. *)
let lib_counters () =
  let m = Mapper.counters () and c = Compiler.cache_stats () in
  [
    ("mapper.ii_attempts", m.Mapper.ii_attempts);
    ("mapper.backtracks", m.backtracks);
    ("mapper.warm_hits", m.warm_hits);
    ("mapper.warm_rejects", m.warm_rejects);
    ("compiler.cache_hits", c.Compiler.hits);
    ("compiler.cache_misses", c.misses);
    ("compiler.compile_count", Compiler.compile_count ());
  ]

(* One timed lookup of a hot compile-cache key. *)
let hit_probe_ns =
  let opts = lazy (Compiler.picachu_options ()) in
  fun () ->
    let opts = Lazy.force opts in
    ignore (Compiler.cached_result opts Kernels.picachu "softmax");
    let t0 = Trace.now_ns () in
    ignore (Compiler.cached_result opts Kernels.picachu "softmax");
    Int64.to_float (Int64.sub (Trace.now_ns ()) t0)

(* A fixed computation that calls no library code — integer arithmetic,
   a float sort and short-lived allocation, about 8 ms on the baseline
   host.  Timed in every round, it measures how fast the host is running
   just then. *)
let reference_ms () =
  let t0 = Trace.now_ns () in
  let x = ref 1 in
  for _ = 1 to 750_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff
  done;
  let a = Array.init 25_000 (fun i -> float (i * 7919 mod 100_003)) in
  Array.sort Float.compare a;
  let l = ref [] in
  for i = 0 to 25_000 do
    l := (float i *. 1.5, i) :: !l
  done;
  ignore (Sys.opaque_identity (!x + List.length !l + int_of_float a.(0)));
  Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e6

let fold_model (f : Jobs.fold) values =
  match (f, values) with
  | _, [] -> Float.nan
  | Jobs.Median, _ -> Stat.median values
  | Min, _ -> List.fold_left Float.min Float.infinity values

let run (c : config) =
  Trace.enabled := c.traced;
  Trace.reset ();
  let inst = c.workload.Jobs.setup ~smoke:c.smoke ~seed:c.seed in
  let setup_s = Int64.to_float (Int64.sub (Trace.now_ns ()) c.spawned_ns) /. 1e9 in
  (* the reference is timed before the ops, at their quarters, and after *)
  let refs = ref [ reference_ms () ] in
  let checkpoints = List.filter (fun i -> i > 0 && i < c.ops) [ c.ops / 4; c.ops / 2; 3 * c.ops / 4 ] in
  let ops_ns = ref [] and attempted = ref 0 and failed = ref 0 and pool_checked = ref 0 in
  (* time spent on ops that failed; it counts toward the run's budget *)
  let failed_ns = ref 0.0 in
  let model = ref [] in
  let counters = Hashtbl.create 32 in
  let add_counter k v =
    Hashtbl.replace counters k (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters k))
  in
  let probes = ref [] in
  let report_failure ~since ~stratum why =
    incr failed;
    failed_ns := !failed_ns +. Int64.to_float (Int64.sub (Trace.now_ns ()) since);
    Printf.eprintf "[%s round %d] op (stratum %d) failed: %s\n%!" c.workload.Jobs.name c.round
      stratum why
  in
  let run_op ~pass ~stratum ~seed =
    incr attempted;
    Trace.current_op := !attempted;
    let before = if c.traced then lib_counters () else [] in
    let since = Trace.now_ns () in
    let report_failure = report_failure ~since in
    match
      let prepared = inst.Jobs.op ~pass ~stratum ~seed in
      let t0 = Trace.now_ns () in
      let finish = Trace.span "op" prepared in
      let dt = Int64.sub (Trace.now_ns ()) t0 in
      (dt, finish ())
    with
    | exception e -> report_failure ~stratum (Printexc.to_string e)
    | dt, checked ->
        if c.traced then begin
          List.iter2
            (fun (k, b) (_, a) -> add_counter k (float (a - b)))
            before (lib_counters ());
          List.iter (fun (k, v) -> add_counter k v) (Trace.take_counters ());
          probes := hit_probe_ns () :: !probes
        end;
        if not checked.Jobs.ok then report_failure ~stratum checked.why
        else begin
          ops_ns := Int64.to_float dt :: !ops_ns;
          model := checked.model @ !model;
          if Hashtbl.hash (c.seed, c.round, pass, stratum, "pool") mod 16 = 0 then begin
            incr pool_checked;
            let traced = !Trace.enabled in
            Trace.enabled := false;
            let again =
              Parallel.with_pool ~size:2 (fun () -> inst.op ~pass ~stratum ~seed () ())
            in
            Trace.enabled := traced;
            if again.Jobs.digest <> checked.digest then begin
              ops_ns := List.tl !ops_ns;
              report_failure ~stratum "output differs on a pool of two domains"
            end
          end
        end
  in
  let pass = ref 0 in
  while !attempted < c.ops do
    let order = Array.init inst.pass_len Fun.id in
    Rng.shuffle (Rng.create (Hashtbl.hash (c.seed, c.round, !pass))) order;
    Array.iter
      (fun stratum ->
        if !attempted < c.ops then begin
          run_op ~pass:!pass ~stratum ~seed:(Hashtbl.hash (c.seed, c.round, !pass, stratum));
          if List.mem !attempted checkpoints then refs := reference_ms () :: !refs
        end)
      order;
    incr pass
  done;
  (* op time against input size, in the first traced round only: the best
     of two runs per size, untraced *)
  let scaling =
    match inst.scaling with
    | Some (name, sizes, at_size) when c.traced && c.round <= 1 ->
        Trace.enabled := false;
        let seed = Hashtbl.hash (c.seed, c.round, "scaling") in
        let time_at size =
          let run = at_size ~size ~seed in
          let t0 = Trace.now_ns () in
          run ();
          Int64.to_float (Int64.sub (Trace.now_ns ()) t0)
        in
        let pts = List.map (fun size -> (float size, Float.min (time_at size) (time_at size))) sizes in
        [ (name, Json.Num (Jobs.loglog_slope pts)) ]
    | _ -> []
  in
  refs := reference_ms () :: !refs;
  let spans = Trace.spans () in
  let obj l = Json.Obj l in
  obj
    ([
       ("workload", Json.Str c.workload.name);
       ("round", Num (float c.round));
       ("traced", Bool c.traced);
       ("setup_s", Num setup_s);
       ("ref_ms", Json.nums (List.rev !refs));
       ("ops_ns", Json.nums (List.rev !ops_ns));
       ("attempted", Num (float !attempted));
       ("failed", Num (float !failed));
       ("failed_ns", Num !failed_ns);
       ("pool_checked", Num (float !pool_checked));
       ("peak_rss_mb", Num (peak_rss_mb ()));
       ( "model",
         obj
           (List.map
              (fun (m : Jobs.model_metric) ->
                ( m.m_name,
                  Json.Num
                    (fold_model m.fold
                       (List.filter_map
                          (fun (k, v) -> if k = m.m_name then Some v else None)
                          !model)) ))
              c.workload.model_metrics) );
     ]
    @
    if not c.traced then []
    else
      [
        ( "layers",
          obj
            (List.map
               (fun (k, (t : Trace.layer_total)) ->
                 ( k,
                   obj
                     [
                       ("ns", Json.Num t.ns);
                       ("alloc_w", Num t.alloc_w);
                       ("calls", Num (float t.calls));
                     ] ))
               (Trace.layer_totals spans)) );
        ( "op_alloc_w",
          Json.nums
            (List.filter_map
               (fun (s : Trace.span) -> if s.parent < 0 then Some s.alloc_words else None)
               spans) );
        ( "counters",
          obj
            (Hashtbl.fold (fun k v acc -> (k, Json.Num v) :: acc) counters []
            |> List.sort compare) );
        ("probe_ns", Json.nums (List.rev !probes));
        ("scaling", obj scaling);
        ("spans", Arr (List.map (Trace.span_to_json ~round:c.round) spans));
      ])
