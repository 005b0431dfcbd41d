(* picachu — command-line front end.

   Subcommands:
     experiments [ID...]   reproduce the paper's tables/figures (default all)
     compile KERNEL        compile a library kernel and show IR/DFG/mapping
     stats                 per-pass pipeline stats + cache effectiveness check
     lint [KERNEL...]      static verification sweep (default: whole library),
                           precision analysis at each kernel's selected format
     formats [KERNEL...]   proven-bound automatic format selection table
     arch                  print the architecture instances and cost model
     models [--seq N]      print the workload inventory of the LLM zoo
     backends              Taylor vs NLI backend head-to-head per operator
     simulate MODEL        end-to-end PICACHU simulation of one model
     serve MODEL           multi-request traffic simulation with latency
                           percentiles (continuous vs static batching)
     cluster MODEL         multi-replica serving under a fault profile with
                           router, retries, hedging, and circuit breakers *)

open Cmdliner
module Kernels = Picachu_ir.Kernels
module Kernel = Picachu_ir.Kernel
module Dfg = Picachu_dfg.Dfg
module Analysis = Picachu_dfg.Analysis
module Fuse = Picachu_dfg.Fuse
module Arch = Picachu_cgra.Arch
module Mapper = Picachu_cgra.Mapper
module Cost = Picachu_cgra.Cost
module Mz = Picachu_llm.Model_zoo
module Workload = Picachu_llm.Workload
module Dataflow = Picachu_memory.Dataflow
module Verify = Picachu_verify.Verify
module Finding = Picachu_verify.Finding
module Precision = Picachu_verify.Precision
module Numfmt = Picachu_numerics.Numfmt
open Picachu

(* ------------------------------------------------------------ experiments *)

let experiments_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID"
           ~doc:"Experiment ids (fig1, tab2, ... ; see --help). Default: all.")
  in
  let run ids =
    match ids with
    | [] -> Experiments.print_all ()
    | ids -> List.iter Experiments.print ids
  in
  let doc =
    "Reproduce the paper's evaluation artifacts. Known ids: "
    ^ String.concat ", " Experiments.ids
  in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const run $ ids)

(* ---------------------------------------------------------------- compile *)

let compile_cmd =
  let kernel_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL"
           ~doc:"Kernel name (softmax, relu, gelu, geglu, swiglu, silu, \
                 layernorm, rmsnorm, rope).")
  in
  let baseline =
    Arg.(value & flag & info [ "baseline" ] ~doc:"Use the homogeneous baseline CGRA \
                                                  and primitive-only kernel variant.")
  in
  let unroll =
    Arg.(value & opt (some int) None & info [ "unroll"; "u" ] ~docv:"UF"
           ~doc:"Fixed unroll factor (default: auto-tuned).")
  in
  let vector =
    Arg.(value & opt int 1 & info [ "vector" ] ~docv:"VF"
           ~doc:"Vector lanes (1 = FP path, 4 = INT16 path).")
  in
  let show_ir = Arg.(value & flag & info [ "ir" ] ~doc:"Print the kernel IR.") in
  let timings =
    Arg.(value & flag & info [ "timings" ]
           ~doc:"Print the per-pass pipeline instrumentation (runs, wall \
                 time, counters) for this compile.")
  in
  let dump_after =
    Arg.(value & opt (some string) None & info [ "dump-after" ] ~docv:"PASS"
           ~doc:"Dump the intermediate artifact after the named pass \
                 (vectorize, unroll, extract, fuse) each time it runs.")
  in
  let run name baseline unroll vector show_ir timings dump_after =
    let variant = if baseline then Kernels.Baseline else Kernels.picachu in
    let opts =
      if baseline then Compiler.baseline_options ()
      else Compiler.picachu_options ~vector ()
    in
    let kernel =
      try Kernels.by_name variant name
      with Not_found ->
        Printf.eprintf "unknown kernel %s\n" name;
        exit 1
    in
    if show_ir then Format.printf "%a@." Kernel.pp kernel;
    (match dump_after with
    | None -> ()
    | Some pass when List.mem pass Compiler.pass_names ->
        Pipeline.set_dump_after
          ~sink:(fun ~pass s ->
            Printf.printf "; dump after %s\n%s" pass s;
            if s = "" || s.[String.length s - 1] <> '\n' then print_newline ())
          (Some pass)
    | Some pass ->
        Printf.eprintf "unknown pass %s (known: %s)\n" pass
          (String.concat ", " Compiler.pass_names);
        exit 1);
    if timings then Compiler.reset_stats ();
    let compiled =
      match unroll with
      | Some uf -> Compiler.compile_with_unroll opts uf kernel
      | None -> Compiler.compile opts kernel
    in
    Pipeline.set_dump_after None;
    Printf.printf "%s on %s (UF=%d, lanes=%d)\n" name compiled.Compiler.arch_name
      compiled.Compiler.unroll compiled.Compiler.vector;
    List.iter
      (fun (cl : Compiler.compiled_loop) ->
        let g = cl.Compiler.dfg in
        Printf.printf "  %-14s nodes=%-3d II=%d makespan=%-3d recMII=%d CI=%.1f hops=%d\n"
          cl.Compiler.source.Kernel.label (Dfg.node_count g) cl.Compiler.mapping.Mapper.ii
          cl.Compiler.mapping.Mapper.makespan (Analysis.rec_mii g)
          (Analysis.computational_intensity g)
          cl.Compiler.mapping.Mapper.routed_hops;
        List.iter
          (fun (p, c) -> Printf.printf "      fused %s x%d\n" (Picachu_ir.Op.fused_name p) c)
          (Fuse.pattern_counts g))
      compiled.Compiler.loops;
    let n = 1024 in
    Printf.printf "pass over %d elements: %d cycles (%.2f cycles/element)\n" n
      (Compiler.pass_cycles compiled ~n)
      (float_of_int (Compiler.pass_cycles compiled ~n) /. float_of_int n);
    if timings then Report.pass_table (Compiler.compile_stats ())
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a nonlinear kernel onto the CGRA.")
    Term.(const run $ kernel_arg $ baseline $ unroll $ vector $ show_ir
          $ timings $ dump_after)

(* ------------------------------------------------------------------ stats *)

let stats_cmd =
  let sweep_effort =
    Arg.(
      value
      & opt (some int) None
      & info [ "sweep-effort" ] ~docv:"CEILING"
          ~doc:
            "Run the full-roster 16-point DSE sweep from a cold cache \
             and fail if the mapper spends more than $(docv) II attempts — \
             the search-cost analogue of a QoR golden.")
  in
  let run sweep_effort =
    match sweep_effort with
    | Some ceiling ->
        Compiler.cache_clear ();
        Compiler.reset_stats ();
        let pts = Explore.sweep () in
        let c = Mapper.counters () in
        Printf.printf "sweep: %d design points\n" (List.length pts);
        Report.search_effort_line c;
        if c.Mapper.ii_attempts > ceiling then begin
          Printf.eprintf
            "search effort regression: %d ii-attempts exceeds ceiling %d\n"
            c.Mapper.ii_attempts ceiling;
          exit 1
        end
    | None ->
        Compiler.reset_stats ();
        let library variant = Kernels.all variant @ Kernels.extras variant in
        let compile_roster () =
          List.iter
            (fun (variant, opts) ->
              List.iter
                (fun (k : Kernel.t) ->
                  ignore (Compiler.cached_result opts variant k.Kernel.name))
                (library variant))
            [
              (Kernels.picachu, Compiler.picachu_options ());
              (Kernels.Baseline, Compiler.baseline_options ());
            ]
        in
        compile_roster ();
        let mid = Compiler.cache_stats () in
        compile_roster ();
        let fin = Compiler.cache_stats () in
        Report.pass_table (Compiler.compile_stats ());
        Report.search_effort_line (Mapper.counters ());
        Printf.printf "cache: hits=%d misses=%d entries=%d\n" fin.Compiler.hits
          fin.Compiler.misses fin.Compiler.entries;
        if fin.Compiler.misses <> mid.Compiler.misses then begin
          Printf.eprintf
            "cache ineffective: %d misses on an already-compiled roster\n"
            (fin.Compiler.misses - mid.Compiler.misses);
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Compile the whole kernel library twice and print per-pass \
             pipeline stats; fails if the second sweep misses the \
             content-addressed cache.  With $(b,--sweep-effort) instead runs \
             the DSE sweep under an II-attempt budget gate.")
    Term.(const run $ sweep_effort)

(* ------------------------------------------------------------------ lint *)

let lint_cmd =
  let kernels_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"KERNEL"
           ~doc:"Kernels to verify (default: the whole library, both variants, \
                 plus the future-operation extras).")
  in
  let run names =
    let library variant = Kernels.all variant @ Kernels.extras variant in
    let roster =
      match names with
      | [] ->
          List.concat_map
            (fun variant -> List.map (fun k -> (variant, k)) (library variant))
            [ Kernels.picachu; Kernels.Baseline ]
      | names ->
          List.map
            (fun name ->
              match
                List.find_opt (fun k -> k.Kernel.name = name) (library Kernels.picachu)
              with
              | Some k -> (Kernels.picachu, k)
              | None ->
                  Printf.eprintf "unknown kernel %s\n" name;
                  exit 2)
            names
    in
    let errors = ref 0 and warnings = ref 0 in
    (* deterministic output: findings print in (severity, code, loc) order
       whatever evaluation order produced them *)
    let report findings =
      List.iter
        (fun (f : Finding.t) ->
          (match f.Finding.severity with
          | Finding.Error -> incr errors
          | Finding.Warning -> incr warnings);
          Format.printf "  %a@." Finding.pp f)
        (Finding.sort findings)
    in
    List.iter
      (fun (variant, (k : Kernel.t)) ->
        let vname = Kernels.variant_name variant in
        Printf.printf "%s (%s)\n" k.Kernel.name vname;
        report (Verify.lint_kernel k);
        let opts =
          match variant with
          | Kernels.Picachu _ -> Compiler.picachu_options ()
          | Kernels.Baseline -> Compiler.baseline_options ()
        in
        (match Compiler.compile_result opts k with
        | Ok c ->
            List.iter
              (fun (cl : Compiler.compiled_loop) ->
                report
                  (Verify.check_loop ~arch:opts.Compiler.arch
                     ~source:cl.Compiler.source cl.Compiler.dfg cl.Compiler.mapping))
              c.Compiler.loops
        | Error e ->
            incr errors;
            Printf.printf "  error[compile] %s\n" (Picachu_error.to_string e));
        let c = Compiler.select_format k in
        let r = Precision.analyze ~fmt:c.Precision.fmt k in
        report r.Precision.findings;
        Printf.printf "  precision: %s (%d bits) proven bound %s budget %g%s\n"
          (Numfmt.name c.Precision.fmt)
          (Numfmt.bits c.Precision.fmt)
          (if Float.is_finite c.Precision.bound then
             Printf.sprintf "%.3g" c.Precision.bound
           else "unbounded")
          c.Precision.budget
          (if c.Precision.fallback then " [fallback]" else ""))
      roster;
    Printf.printf "%d kernel(s): %d error(s), %d warning(s)\n"
      (List.length roster) !errors !warnings;
    if !errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the independent static verifier (IR lint, DFG invariants, \
             schedule validation) over library kernels, then select each \
             kernel's format against \\$PICACHU_ERROR_BUDGET and report \
             the affine-arithmetic precision analysis at that format: the \
             proven error bound and any prec-* findings.  Exits non-zero \
             when any Error-severity finding survives.")
    Term.(const run $ kernels_arg)

(* --------------------------------------------------------------- formats *)

let formats_cmd =
  let kernels_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"KERNEL"
           ~doc:"Kernels to select formats for (default: the whole PICACHU \
                 roster including the future-operation extras).")
  in
  let budget =
    Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"ERR"
           ~doc:"Absolute output-error budget (default: \
                 \\$PICACHU_ERROR_BUDGET or 1e-2).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ]
           ~doc:"Also print every candidate format's proven bound.")
  in
  let run names budget verbose =
    let library = Kernels.all Kernels.picachu @ Kernels.extras Kernels.picachu in
    let roster =
      match names with
      | [] -> library
      | names ->
          List.map
            (fun name ->
              match List.find_opt (fun k -> k.Kernel.name = name) library with
              | Some k -> k
              | None ->
                  Printf.eprintf "unknown kernel %s\n" name;
                  exit 2)
            names
    in
    let pp_bound b =
      if Float.is_finite b then Printf.sprintf "%.3g" b else "unbounded"
    in
    (* a budget that is not finite and positive proves nothing: refuse it
       before printing a table *)
    let budget = Precision.resolve_budget budget in
    Printf.printf "%-16s %-10s %5s  %-11s %-9s %s\n" "kernel" "format" "bits"
      "proven" "budget" "status";
    let narrow = ref 0 and fallbacks = ref 0 in
    List.iter
      (fun (k : Kernel.t) ->
        let c = Compiler.select_format ~budget k in
        if c.Precision.fallback then incr fallbacks
        else if Numfmt.bits c.Precision.fmt < 16 then incr narrow;
        Printf.printf "%-16s %-10s %5d  %-11s %-9g %s\n" k.Kernel.name
          (Numfmt.name c.Precision.fmt)
          (Numfmt.bits c.Precision.fmt)
          (pp_bound c.Precision.bound) c.Precision.budget
          (if c.Precision.fallback then "fallback" else "fits");
        if verbose then
          List.iter
            (fun (fmt, b) ->
              Printf.printf "    %-10s %5d  %s\n" (Numfmt.name fmt)
                (Numfmt.bits fmt) (pp_bound b))
            c.Precision.tried)
      roster;
    Printf.printf
      "%d kernel(s): %d sub-16-bit selection(s), %d fallback(s)\n"
      (List.length roster) !narrow !fallbacks
  in
  Cmd.v
    (Cmd.info "formats"
       ~doc:"Proven-bound automatic format selection: walk the candidate \
             ladder cheapest-first and report, per kernel, the cheapest \
             number format whose statically proven worst-case output error \
             fits the budget (affine-arithmetic analysis; no execution).")
    Term.(const run $ kernels_arg $ budget $ verbose)

(* ---------------------------------------------------------------- dump *)

let dump_cmd =
  let kernel_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL"
           ~doc:"Library kernel to print in the textual format.")
  in
  let baseline = Arg.(value & flag & info [ "baseline" ] ~doc:"Baseline variant.") in
  let run name baseline =
    let variant = if baseline then Kernels.Baseline else Kernels.picachu in
    match Kernels.by_name variant name with
    | k -> print_string (Picachu_ir.Kernel_text.to_string k)
    | exception Not_found ->
        Printf.eprintf "unknown kernel %s
" name;
        exit 1
  in
  Cmd.v (Cmd.info "dump" ~doc:"Print a library kernel in the textual kernel format.")
    Term.(const run $ kernel_arg $ baseline)

(* -------------------------------------------------------------- hw-run *)

let hw_run_cmd =
  let source =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL|FILE"
           ~doc:"Library kernel name, or a .pk text file (see the dump command).")
  in
  let n = Arg.(value & opt int 32 & info [ "n" ] ~docv:"N" ~doc:"Elements per stream.") in
  let run source n =
    let kernel =
      if Sys.file_exists source then begin
        let ic = open_in source in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        try Picachu_ir.Kernel_text.of_string text
        with Picachu_ir.Kernel_text.Parse_error e ->
          Printf.eprintf "parse error: %s
" e;
          exit 1
      end
      else
        try Kernels.by_name Kernels.picachu source
        with Not_found ->
          Printf.eprintf "no such file or library kernel: %s
" source;
          exit 1
    in
    let compiled = Compiler.compile (Compiler.picachu_options ()) kernel in
    let rng = Picachu_tensor.Rng.create 1 in
    let arrays =
      List.map
        (fun name -> (name, Array.init n (fun _ -> Picachu_tensor.Rng.uniform rng ~lo:(-2.0) ~hi:2.0)))
        kernel.Kernel.inputs
    in
    let env = { Picachu_ir.Interp.arrays; scalars = [ ("n", float_of_int n) ] } in
    let hw = Hw_sim.run compiled env in
    let reference = Picachu_ir.Interp.run kernel env in
    Printf.printf "%s: executed %d cycles on the configured fabric (%d config words)
"
      kernel.Kernel.name hw.Hw_sim.total_cycles (Hw_sim.config_words compiled);
    List.iter
      (fun (stream, a) ->
        let b = List.assoc stream reference.Picachu_ir.Interp.out_arrays in
        let worst = ref 0.0 in
        Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i)))) a;
        Printf.printf "  %s: max |hw - interp| = %g
" stream !worst)
      hw.Hw_sim.result.Picachu_ir.Interp.out_arrays;
    List.iter
      (fun cfg -> Format.printf "%a" Picachu_cgra.Config.pp cfg)
      hw.Hw_sim.configs
  in
  Cmd.v
    (Cmd.info "hw-run"
       ~doc:"Compile a kernel (library or text file), execute it on the              cycle-accurate fabric, and print the per-tile configuration.")
    Term.(const run $ source $ n)

(* ------------------------------------------------------------------- arch *)

let arch_cmd =
  let run () =
    Format.printf "%a@." Arch.pp (Arch.picachu ());
    Format.printf "%a@." Arch.pp (Arch.baseline ());
    print_endline "Cost model (paper Table 7 configuration):";
    Cost.pp_breakdown Format.std_formatter (Cost.picachu_breakdown (Arch.picachu ()));
    Format.pp_print_flush Format.std_formatter ();
    print_endline "Special FU overheads (relative to a basic tile):";
    List.iter
      (fun (name, a, p) -> Printf.printf "  %-11s area +%.1f%%  power +%.1f%%\n" name (100.0 *. a) (100.0 *. p))
      Cost.fu_overheads
  in
  Cmd.v (Cmd.info "arch" ~doc:"Show the CGRA instances and the cost model.")
    Term.(const run $ const ())

(* --------------------------------------------------------------- frontend *)

let frontend_cmd =
  let model_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL"
           ~doc:"Model whose transformer block to compile (e.g. llama2-7b).")
  in
  let seq = Arg.(value & opt int 128 & info [ "seq" ] ~docv:"N" ~doc:"Sequence length.") in
  let show_program = Arg.(value & flag & info [ "program" ] ~doc:"Print the tensor program.") in
  let run name seq show_program =
    let m =
      try Mz.by_name name
      with Not_found ->
        Printf.eprintf "unknown model %s\n" name;
        exit 1
    in
    let p = Picachu_frontend.Layer_builder.transformer_block m ~seq in
    if show_program then Format.printf "%a" Picachu_frontend.Tensor_ir.pp p;
    let r = Picachu_frontend.Patterns.rewrite p in
    Printf.printf "pattern matching: %d -> %d instructions\n"
      (List.length p.Picachu_frontend.Tensor_ir.instrs)
      (List.length r.Picachu_frontend.Tensor_ir.instrs);
    Format.printf "%a" Picachu_frontend.Offload.pp (Picachu_frontend.Offload.offload r);
    match Picachu_frontend.Patterns.unmatched_primitives r with
    | [] -> print_endline "all nonlinear operations recognized"
    | l -> Printf.printf "UNMATCHED primitives: %s\n" (String.concat ", " l)
  in
  Cmd.v
    (Cmd.info "frontend" ~doc:"Lower a transformer block, pattern-match, and offload.")
    Term.(const run $ model_arg $ seq $ show_program)

(* ----------------------------------------------------------------- models *)

let models_cmd =
  let seq = Arg.(value & opt int 1024 & info [ "seq" ] ~docv:"N" ~doc:"Sequence length.") in
  let run seq =
    List.iter
      (fun m -> Format.printf "%a@." Workload.pp (Workload.of_model m ~seq))
      Mz.all
  in
  Cmd.v (Cmd.info "models" ~doc:"Print the LLM workload inventory.")
    Term.(const run $ seq)

(* ------------------------------------------------------------------ serve *)

let serve_cmd =
  let model_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL"
           ~doc:"Model to serve (e.g. llama2-7b).")
  in
  let rps =
    Arg.(value & opt float 4.0 & info [ "rps" ] ~docv:"R"
           ~doc:"Mean request arrival rate (Poisson).")
  in
  let requests =
    Arg.(value & opt int 32 & info [ "requests"; "n" ] ~docv:"N"
           ~doc:"Number of requests in the trace.")
  in
  let policy_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "continuous" -> Ok Scheduler.Continuous
      | "static" -> Ok (Scheduler.Static 4)
      | s when String.length s > 7 && String.sub s 0 7 = "static=" -> (
          match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
          | Some b when b >= 1 -> Ok (Scheduler.Static b)
          | _ -> Error (`Msg "static=B needs a positive integer B"))
      | _ -> Error (`Msg "policy is 'continuous', 'static' or 'static=B'")
    in
    Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Scheduler.policy_name p))
  in
  let policy =
    Arg.(value & opt policy_conv Scheduler.Continuous & info [ "policy"; "p" ]
           ~docv:"P" ~doc:"Batching policy: continuous (default), static, static=B.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Trace seed.") in
  let slots =
    Arg.(value & opt int 8 & info [ "slots" ] ~docv:"K"
           ~doc:"Decode batch capacity under the continuous policy.")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"Q"
           ~doc:"Admission queue capacity; arrivals beyond it are dropped.")
  in
  let run name rps requests policy seed slots queue =
    let m =
      try Mz.by_name name
      with Not_found ->
        Printf.eprintf "unknown model %s\n" name;
        exit 1
    in
    let spec = Scheduler.default_trace ~seed ~rps ~requests () in
    let fleet =
      Scheduler.serve ~slots ~queue_capacity:queue ~policy
        (Simulator.default_config ()) m spec
    in
    Printf.printf "%s  rps=%g requests=%d policy=%s slots=%d queue=%d seed=%d\n" name
      rps requests (Scheduler.policy_name policy) slots queue seed;
    Report.serve_table fleet
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Simulate a multi-request traffic trace through the admission \
             queue and batching policy; prints per-request TTFT/latency \
             percentiles, throughput, and the serving-tier tally.")
    Term.(const run $ model_arg $ rps $ requests $ policy $ seed $ slots $ queue)

(* ---------------------------------------------------------------- cluster *)

let cluster_cmd =
  let model_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL"
           ~doc:"Model to serve (e.g. llama2-7b).")
  in
  let replicas =
    Arg.(value & opt int 3 & info [ "replicas" ] ~docv:"N"
           ~doc:"Number of serving replicas behind the router.")
  in
  let router_conv =
    let parse s =
      match Cluster.router_of_string s with
      | Some r -> Ok r
      | None -> Error (`Msg "router is 'round-robin', 'least-loaded' or 'p2c'")
    in
    Arg.conv (parse, fun fmt r -> Format.pp_print_string fmt (Cluster.router_name r))
  in
  let router =
    Arg.(value & opt router_conv Cluster.Round_robin & info [ "router" ] ~docv:"R"
           ~doc:"Routing policy: round-robin (default), least-loaded, p2c.")
  in
  let fault_profile =
    Arg.(value & opt string "none" & info [ "fault-profile" ] ~docv:"P"
           ~doc:"Replica failure profile: none (default), crash, straggler, mixed.")
  in
  let mttf =
    Arg.(value & opt float 30.0 & info [ "mttf" ] ~docv:"S"
           ~doc:"Mean time between replica failures (seconds, simulated).")
  in
  let mttr =
    Arg.(value & opt float 5.0 & info [ "mttr" ] ~docv:"S"
           ~doc:"Mean outage duration (seconds, simulated).")
  in
  let rps =
    Arg.(value & opt float 4.0 & info [ "rps" ] ~docv:"R"
           ~doc:"Mean request arrival rate (Poisson).")
  in
  let requests =
    Arg.(value & opt int 32 & info [ "requests"; "n" ] ~docv:"N"
           ~doc:"Number of requests in the trace.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Trace seed.") in
  let slots =
    Arg.(value & opt int 8 & info [ "slots" ] ~docv:"K"
           ~doc:"Continuous-batching slots per replica.")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"Q"
           ~doc:"Admission queue capacity per replica.")
  in
  let no_defenses =
    Arg.(value & flag & info [ "no-defenses" ]
           ~doc:"Disable every front-end defense (no retries, hedges, \
                 breakers, timeouts) — the chaos baseline.")
  in
  let timeout =
    Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"S"
           ~doc:"Per-attempt deadline in simulated seconds.")
  in
  let retries =
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"K"
           ~doc:"Deadline-driven retry budget per request.")
  in
  let run name replicas router fault_profile mttf mttr rps requests seed slots queue
      no_defenses timeout retries =
    let m =
      try Mz.by_name name
      with Not_found ->
        Printf.eprintf "unknown model %s\n" name;
        exit 1
    in
    let profile =
      match Cluster.profile_of_string ~seed ~mttf ~mttr fault_profile with
      | Some p -> p
      | None ->
          Printf.eprintf "unknown fault profile %s (known: none, crash, straggler, mixed)\n"
            fault_profile;
          exit 1
    in
    let defenses =
      if no_defenses then Cluster.no_defenses
      else
        { Cluster.default_defenses with Cluster.timeout_s = timeout; max_retries = retries }
    in
    let cfg =
      Cluster.default_config ~replicas ~router ~slots ~queue_capacity:queue ~seed ~profile
        ~defenses ()
    in
    let spec = Scheduler.default_trace ~seed ~rps ~requests () in
    let report = Cluster.serve cfg (Simulator.default_config ()) m spec in
    Printf.printf
      "%s  replicas=%d router=%s profile=%s mttf=%g mttr=%g rps=%g requests=%d \
       slots=%d queue=%d seed=%d defenses=%s\n"
      name replicas (Cluster.router_name router) fault_profile mttf mttr rps requests
      slots queue seed
      (if no_defenses then "off" else "on");
    Report.cluster_table report;
    if not (Cluster.accounting_ok report) then begin
      Printf.eprintf "availability accounting identity violated\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Simulate a multi-replica cluster under a replica failure \
             profile: a discrete-event core hosts N continuous-batching \
             replicas behind a router with timeouts, retries, hedging, and \
             circuit breakers; prints availability, tail latency, and fault \
             counters.  Exits non-zero if the availability accounting \
             identity is violated.")
    Term.(const run $ model_arg $ replicas $ router $ fault_profile $ mttf $ mttr
          $ rps $ requests $ seed $ slots $ queue $ no_defenses $ timeout $ retries)

(* --------------------------------------------------------------- backends *)

let backends_cmd =
  let run () = Experiments.print "backends" in
  Cmd.v
    (Cmd.info "backends"
       ~doc:"Head-to-head of the approximation backends (Taylor expansion \
             vs non-uniform linear interpolation) per operator: proven \
             FP16 error bound or surrogate-PPL delta, achieved II per \
             loop, and resident LUT ROM bytes.")
    Term.(const run $ const ())

(* --------------------------------------------------------------- codesign *)

let codesign_cmd =
  let iters =
    Arg.(value & opt int Codesign.default_config.Codesign.iters
         & info [ "iters" ] ~docv:"N" ~doc:"Candidate evaluation budget.")
  in
  let seed =
    Arg.(value & opt int Codesign.default_config.Codesign.seed
         & info [ "seed" ] ~docv:"SEED" ~doc:"Search seed (the trace is a pure function of it).")
  in
  let area_cap =
    Arg.(value & opt (some float) None
         & info [ "area-cap" ] ~docv:"MM2"
             ~doc:"Constrained mode: maximize geomean throughput subject to \
                   area <= $(docv) instead of maximizing perf/area.")
  in
  let run iters seed area_cap =
    let objective =
      match area_cap with
      | None -> Codesign.Perf_per_area
      | Some cap -> Codesign.Throughput_under_cap cap
    in
    let config = { Codesign.default_config with Codesign.iters; seed; objective } in
    Report.codesign_table (Codesign.run ~config ())
  in
  Cmd.v
    (Cmd.info "codesign"
       ~doc:"Automated HW/SW co-design: seeded simulated annealing over grid \
             dims, tile FU mix, CoT share, and LUT ROM capacity, scoring \
             each candidate's full-roster geomean throughput and area; \
             reports the discovered architecture against the hand-designed \
             4x4 reference point.")
    Term.(const run $ iters $ seed $ area_cap)

(* --------------------------------------------------------------- simulate *)

let simulate_cmd =
  let model_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL"
           ~doc:"Model name (gpt2-xl, opt-6.7b, opt-13b, bigbird, llama2-7b, \
                 llama2-13b).")
  in
  let seq = Arg.(value & opt int 1024 & info [ "seq" ] ~docv:"N" ~doc:"Sequence length.") in
  let buffer = Arg.(value & opt float 40.0 & info [ "buffer" ] ~docv:"KB" ~doc:"Shared Buffer size.") in
  let vector = Arg.(value & opt int 4 & info [ "vector" ] ~docv:"VF" ~doc:"Lanes (1 or 4).") in
  let scale = Arg.(value & flag & info [ "a100-scale" ] ~doc:"Use the A100-matched scale of §5.4.") in
  let timeline = Arg.(value & flag & info [ "timeline" ] ~doc:"Render a one-layer Gantt chart.") in
  let run name seq buffer vector scale timeline =
    let m =
      try Mz.by_name name
      with Not_found ->
        Printf.eprintf "unknown model %s\n" name;
        exit 1
    in
    let w = Workload.of_model m ~seq in
    let cfg =
      if scale then { (Simulator.a100_scale_config ()) with Simulator.vector }
      else Simulator.default_config ~buffer_kb:buffer ~vector ()
    in
    let r = Simulator.run cfg w in
    Printf.printf "%s seq=%d on %s (%dx%d systolic, %d CGRA(s), %d lanes)\n" name seq
      cfg.Simulator.arch.Arch.name cfg.Simulator.systolic.Picachu_systolic.Systolic.dim
      cfg.Simulator.systolic.Picachu_systolic.Systolic.dim cfg.Simulator.nl_parallel
      cfg.Simulator.vector;
    Printf.printf "total %.2f ms  (gemm %.2f ms, nonlinear exposed %.2f ms = %.1f%%)\n"
      (Simulator.seconds cfg r *. 1e3)
      (float_of_int r.Simulator.gemm_cycles /. 1e6)
      (float_of_int r.Simulator.nl_exposed_total /. 1e6)
      (100.0 *. Simulator.nonlinear_fraction r);
    Printf.printf "energy %.2f mJ\n" (r.Simulator.energy_uj /. 1e3);
    List.iter
      (fun (o : Simulator.op_time) ->
        Printf.printf "  %-11s %-18s busy=%8.3fms exposed=%8.3fms\n" o.Simulator.ot_tag
          (Dataflow.case_name o.Simulator.case)
          (float_of_int o.Simulator.busy_cycles /. 1e6)
          (float_of_int o.Simulator.exposed_cycles /. 1e6))
      r.Simulator.nl;
    if timeline then print_string (Timeline.render (Timeline.layer cfg w))
  in
  Cmd.v (Cmd.info "simulate" ~doc:"End-to-end PICACHU simulation of one model.")
    Term.(const run $ model_arg $ seq $ buffer $ vector $ scale $ timeline)

let () =
  let doc = "PICACHU: plug-in CGRA for nonlinear operations in LLMs (ASPLOS'25 reproduction)" in
  let info = Cmd.info "picachu" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info [ experiments_cmd; compile_cmd; stats_cmd; lint_cmd; formats_cmd; dump_cmd; hw_run_cmd; frontend_cmd; arch_cmd; models_cmd; simulate_cmd; serve_cmd; cluster_cmd; backends_cmd; codesign_cmd ]
  in
  (* rejected arguments surface as one line and exit 2, whichever command
     (or library call beneath it) raised *)
  let fail msg =
    Printf.eprintf "picachu: %s\n" msg;
    2
  in
  exit
    (try Cmd.eval ~catch:false cmd with
    | Invalid_argument msg -> fail msg
    | Picachu_error.Error e -> fail (Picachu_error.to_string e))
