(* Benchmark harness.

   Two parts:

   1. The experiment reproduction: prints every table and figure of the
      paper's evaluation (the rows EXPERIMENTS.md records).
   2. Bechamel microbenchmarks — one Test.make per table/figure — timing the
      computational core behind each artifact (a compiler+mapper run, a
      surrogate forward pass, an end-to-end simulation, ...), so regressions
      in the heavy machinery show up as timing changes. *)

open Bechamel
open Toolkit
module Kernels = Picachu_ir.Kernels
module Dfg = Picachu_dfg.Dfg
module Fuse = Picachu_dfg.Fuse
module Arch = Picachu_cgra.Arch
module Mapper = Picachu_cgra.Mapper
module Cost = Picachu_cgra.Cost
module Mz = Picachu_llm.Model_zoo
module Workload = Picachu_llm.Workload
module Gpu = Picachu_llm.Gpu_model
module Surrogate = Picachu_llm.Surrogate
module Zero_shot = Picachu_llm.Zero_shot
module Gemmini = Picachu_baselines.Gemmini
module Tandem = Picachu_baselines.Tandem
module One_sa = Picachu_baselines.One_sa
module Approx = Picachu_numerics.Approx
module Taylor = Picachu_numerics.Taylor
open Picachu

let sur = lazy (Surrogate.create ~seed:42 (Surrogate.surrogate_of Mz.llama2_7b))
let tokens = Array.init 32 (fun i -> (i * 37) mod 256)

let softmax_dfg =
  lazy
    (Fuse.fuse
       (Dfg.of_loop (List.nth (Kernels.softmax Kernels.picachu).Picachu_ir.Kernel.loops 1)))

let bench_tests =
  [
    (* fig1: the A100 roofline over a full workload *)
    Test.make ~name:"fig1:gpu-roofline-llama13b"
      (Staged.stage (fun () ->
           ignore (Gpu.run Gpu.a100 (Workload.of_model Mz.llama2_13b ~seq:1024))));
    (* tab2/tab5: one surrogate forward pass per backend class *)
    Test.make ~name:"tab2:surrogate-forward-ibert"
      (Staged.stage (fun () ->
           ignore (Surrogate.logits (Lazy.force sur) Approx.ibert tokens)));
    Test.make ~name:"tab5:surrogate-forward-ours-int16"
      (Staged.stage (fun () ->
           ignore (Surrogate.logits (Lazy.force sur) (Approx.ours_int ()) tokens)));
    (* tab3: the Taylor operator algorithm itself *)
    Test.make ~name:"tab3:taylor-exp-1k"
      (Staged.stage (fun () ->
           for i = 0 to 999 do
             ignore (Taylor.exp ((float_of_int i /. 50.0) -. 15.0))
           done));
    (* tab4: DFG extraction + fusion over the kernel library *)
    Test.make ~name:"tab4:fuse-all-kernels"
      (Staged.stage (fun () ->
           List.iter
             (fun (k : Picachu_ir.Kernel.t) ->
               List.iter
                 (fun l -> ignore (Fuse.fuse (Dfg.of_loop l)))
                 k.Picachu_ir.Kernel.loops)
             (Kernels.all Kernels.picachu)));
    (* tab6: zero-shot scoring *)
    Test.make ~name:"tab6:zero-shot-item"
      (Staged.stage (fun () ->
           ignore (Zero_shot.score_candidate (Lazy.force sur) Approx.exact tokens 7)));
    (* tab7: the cost model *)
    Test.make ~name:"tab7:cost-breakdown"
      (Staged.stage (fun () -> ignore (Cost.picachu_breakdown (Arch.picachu ()))));
    (* fig7a/b: the modulo-scheduling mapper on the softmax exp loop *)
    Test.make ~name:"fig7:map-softmax-loop"
      (Staged.stage (fun () ->
           ignore (Mapper.map_dfg (Arch.picachu ()) (Lazy.force softmax_dfg))));
    (* fig7c/8/9: the end-to-end simulator and the baseline models *)
    Test.make ~name:"fig8:simulate-llama7b"
      (Staged.stage (fun () ->
           ignore
             (Simulator.run (Simulator.default_config ())
                (Workload.of_model Mz.llama2_7b ~seq:1024))));
    Test.make ~name:"fig8:gemmini-llama7b"
      (Staged.stage (fun () ->
           ignore (Gemmini.run Gemmini.default (Workload.of_model Mz.llama2_7b ~seq:1024))));
    Test.make ~name:"fig8:tandem-gpt2xl"
      (Staged.stage (fun () ->
           ignore (Tandem.run Tandem.default (Workload.of_model Mz.gpt2_xl ~seq:1024))));
    (* baseline: nonlinear ops time-multiplexed onto the systolic array *)
    Test.make ~name:"baseline:one-sa"
      (Staged.stage (fun () ->
           ignore (One_sa.run One_sa.default (Workload.of_model Mz.llama2_7b ~seq:1024))));
    (* frontend: pattern matching a full transformer block *)
    Test.make ~name:"frontend:match-llama-block"
      (Staged.stage (fun () ->
           ignore
             (Picachu_frontend.Patterns.rewrite
                (Picachu_frontend.Layer_builder.transformer_block Mz.llama2_7b ~seq:128))));
    (* hw: cycle-accurate execution of a mapped kernel *)
    Test.make ~name:"hw:execute-rmsnorm-64"
      (Staged.stage
         (let compiled =
            lazy
              (Compiler.compile (Compiler.picachu_options ())
                 (Kernels.rmsnorm Kernels.picachu))
          in
          let env =
            {
              Picachu_ir.Interp.arrays =
                [ ("x", Array.init 64 (fun i -> float_of_int i /. 9.0)) ];
              scalars = [ ("n", 64.0) ];
            }
          in
          fun () -> ignore (Hw_sim.run (Lazy.force compiled) env)));
    (* nli: one full error-equalizing breakpoint fit (binary search over
       the per-segment threshold around greedy covers) for the gelu table *)
    Test.make ~name:"nli:fit-gelu"
      (Staged.stage (fun () ->
           ignore
             (Picachu_numerics.Nli.fit ~segments:64 ~lo:(-8.0) ~hi:8.0
                (fun x ->
                  x *. Picachu_numerics.Lut.gauss_cdf_exact x))));
    (* dse: a small sweep crossed with the backend axis — Taylor and NLI
       rosters compile per design point (memoized across iterations) *)
    Test.make ~name:"dse:backend-sweep"
      (Staged.stage (fun () ->
           ignore
             (Explore.sweep ~sizes:[ (3, 3) ] ~cot_shares:[ 0.5 ]
                ~backends:[ Kernels.Taylor; Kernels.Nli ] ())));
    (* dse: evaluating one design point from an empty compile cache —
       every kernel pays the full pipeline, so this tracks raw mapper cost *)
    Test.make ~name:"dse:evaluate-3x3"
      (Staged.stage (fun () ->
           Compiler.cache_clear ();
           ignore (Explore.evaluate ~rows:3 ~cols:3 ~cot_share:0.5 ())));
    (* dse: the full 16-point sweep from a cold cache — the end-to-end
       DSE throughput number (dedupe + pruned search) *)
    Test.make ~name:"dse:sweep-16pt-cold"
      (Staged.stage (fun () ->
           Compiler.cache_clear ();
           ignore (Explore.sweep ())));
    (* dse: a tiny seeded annealing run on the warm cache — tracks the
       per-candidate overhead of the co-design search machinery itself
       (move generation, batched evaluation, acceptance) *)
    Test.make ~name:"dse:codesign-anneal"
      (Staged.stage (fun () ->
           ignore
             (Codesign.run
                ~config:{ Codesign.default_config with Codesign.iters = 8 }
                ())));
    (* compile: one cold pipeline run (auto-tuned softmax), no memoization *)
    Test.make ~name:"compile:pipeline-softmax"
      (Staged.stage (fun () ->
           ignore
             (Compiler.compile_result (Compiler.picachu_options ())
                (Kernels.softmax Kernels.picachu))));
    (* compile: a content-addressed cache hit (digest + table lookup) *)
    Test.make ~name:"compile:cache-hit"
      (Staged.stage
         (let opts = Compiler.picachu_options () in
          ignore (Compiler.cached_result opts Kernels.picachu "softmax");
          fun () -> ignore (Compiler.cached_result opts Kernels.picachu "softmax")));
    (* verify: one affine-arithmetic precision analysis of the hardest
       roster kernel (three loops, reductions, a division) at one format *)
    Test.make ~name:"verify:precision-softmax"
      (Staged.stage
         (let k = Kernels.softmax Kernels.picachu in
          let fmt = Picachu_numerics.Numfmt.fixed ~total_bits:16 ~frac_bits:8 in
          fun () -> ignore (Picachu_verify.Precision.analyze ~fmt k)));
    (* compile: the full format-selection ladder walk (10 candidate
       analyses) for a kernel that proves a sub-Q16 bound *)
    Test.make ~name:"compile:select-format"
      (Staged.stage
         (let k = Kernels.gelu Kernels.picachu in
          fun () -> ignore (Compiler.select_format ~budget:1e-2 k)));
  ]

(* machine-readable perf trajectory: name -> ns/run, diffable across PRs *)
let write_results_json path results =
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  %S: %.3f%s\n" name ns
        (if i = List.length results - 1 then "" else ","))
    results;
  output_string oc "}\n";
  close_out oc

let run_benchmarks () =
  print_newline ();
  print_endline "Bechamel microbenchmarks (monotonic clock per run)";
  Printf.printf "(domain pool: %d)\n" (Picachu_parallel.Parallel.size ());
  print_endline "--------------------------------------------------";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.2) ~kde:(Some 10) () in
  let instances = [ Instance.monotonic_clock ] in
  let collected = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              let v, unit_name =
                if est > 1e6 then (est /. 1e6, "ms")
                else if est > 1e3 then (est /. 1e3, "us")
                else (est, "ns")
              in
              collected := (name, est) :: !collected;
              Printf.printf "  %-36s %10.2f %s/run\n%!" name v unit_name
          | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
        analysis)
    bench_tests;
  let results = List.rev !collected in
  write_results_json "BENCH_RESULTS.json" results;
  Printf.printf "\n[wrote %d entries to BENCH_RESULTS.json]\n" (List.length results)

let () =
  let t0 = Unix.gettimeofday () in
  print_endline "PICACHU experiment reproduction (every table and figure)";
  print_endline "=========================================================";
  Experiments.print_all ();
  run_benchmarks ();
  Printf.printf "\n[bench harness completed in %.1fs]\n" (Unix.gettimeofday () -. t0)
