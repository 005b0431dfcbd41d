(* Co-design search (lib/picachu/codesign.ml) and the ONE-SA baseline
   (lib/baselines/one_sa.ml).

   The search determinism tests are the load-bearing ones: the annealer
   batches candidate evaluations over the domain pool and shares one
   content-addressed compile cache across them, and its whole trace must be
   a pure function of (config, seed) — independent of the pool size and of
   compile-cache state left behind by earlier runs. *)

open Picachu
module Arch = Picachu_cgra.Arch
module Fu = Picachu_cgra.Fu
module Parallel = Picachu_parallel.Parallel
module Registry = Picachu_nonlinear.Registry
module Workload = Picachu_llm.Workload
module Mz = Picachu_llm.Model_zoo
module One_sa = Picachu_baselines.One_sa
module Gemmini = Picachu_baselines.Gemmini

let small_config = { Codesign.default_config with Codesign.iters = 8; seed = 3 }

let trace_string (r : Codesign.result) =
  String.concat "\n"
    (List.map
       (fun (e : Codesign.trace_entry) ->
         Printf.sprintf "%d %s %s %s %b %.12g" e.Codesign.step e.Codesign.move
           e.Codesign.arch_name
           (match e.Codesign.score with
           | Some s -> Printf.sprintf "%.12g" s
           | None -> "-")
           e.Codesign.accepted e.Codesign.best_score)
       r.Codesign.trace)

let test_pool_determinism () =
  (* the compile cache is cleared before each run so every pool size does
     its own compiles — a shared cache would mask order dependence *)
  let run_at size =
    Compiler.cache_clear ();
    Parallel.with_pool ~size (fun () -> Codesign.run ~config:small_config ())
  in
  let r1 = run_at 1 in
  let r2 = run_at 2 in
  let r4 = run_at 4 in
  Alcotest.(check string) "pool 2 trace" (trace_string r1) (trace_string r2);
  Alcotest.(check string) "pool 4 trace" (trace_string r1) (trace_string r4);
  Alcotest.(check string) "best arch digest"
    (Arch.structural_digest r1.Codesign.best_arch)
    (Arch.structural_digest r4.Codesign.best_arch)

let test_repeat_determinism () =
  let r1 = Codesign.run ~config:small_config () in
  let r2 = Codesign.run ~config:small_config () in
  Alcotest.(check string) "repeat trace" (trace_string r1) (trace_string r2);
  Alcotest.(check int) "trace covers the budget" small_config.Codesign.iters
    (List.length r1.Codesign.trace)

(* the CI smoke's configuration: the discovered point must strictly beat the
   paper's hand-designed 4x4 on perf/area within a small seeded budget *)
let test_beats_reference () =
  let config = { Codesign.default_config with Codesign.iters = 16; seed = 7 } in
  let r = Codesign.run ~config () in
  let ref_p = Explore.reference_point () in
  Alcotest.(check bool) "strictly above the 4x4 reference" true
    (r.Codesign.best.Explore.perf_per_area > ref_p.Explore.perf_per_area);
  Alcotest.(check (float 1e-9)) "init point is the reference"
    ref_p.Explore.perf_per_area r.Codesign.init_point.Explore.perf_per_area

let test_search_invariants () =
  let r = Codesign.run ~config:small_config () in
  Alcotest.(check int) "evaluated = budget" small_config.Codesign.iters
    r.Codesign.evaluated;
  List.iter
    (fun (e : Codesign.trace_entry) ->
      Alcotest.(check bool) "candidate names carry the sa- prefix" true
        (String.length e.Codesign.arch_name >= 3
        && String.sub e.Codesign.arch_name 0 3 = "sa-"))
    r.Codesign.trace;
  (* best_score is monotone along the trace *)
  ignore
    (List.fold_left
       (fun prev (e : Codesign.trace_entry) ->
         Alcotest.(check bool) "best monotone" true (e.Codesign.best_score >= prev);
         e.Codesign.best_score)
       Float.neg_infinity r.Codesign.trace);
  (* corners stay BrT through every move *)
  let a = r.Codesign.best_arch in
  List.iter
    (fun (row, col) ->
      let idx = (row * a.Arch.cols) + col in
      Alcotest.(check bool) "corner is BrT" true (a.Arch.kinds.(idx) = Fu.BrT))
    [
      (0, 0);
      (0, a.Arch.cols - 1);
      (a.Arch.rows - 1, 0);
      (a.Arch.rows - 1, a.Arch.cols - 1);
    ]

let test_constrained_mode () =
  let ref_p = Explore.reference_point () in
  let cap = ref_p.Explore.area_mm2 *. 0.8 in
  let config =
    {
      Codesign.default_config with
      Codesign.iters = 12;
      seed = 5;
      objective = Codesign.Throughput_under_cap cap;
    }
  in
  let r = Codesign.run ~config () in
  Alcotest.(check bool) "best respects the area cap" true
    (r.Codesign.best.Explore.area_mm2 <= cap);
  (* under the cap the score is the geomean throughput *)
  match Codesign.score config.Codesign.objective r.Codesign.best with
  | Some s ->
      Alcotest.(check (float 1e-9)) "score = throughput"
        r.Codesign.best.Explore.geomean_throughput s
  | None -> Alcotest.fail "best point scored infeasible"

(* --------------------------------------------------------------- ONE-SA *)

let nl_instance ?(count = 1) op =
  { Workload.op; rows = 64; dim = 256; nl_count = count; nl_tag = "t" }

let test_onesa_accounting () =
  let w = Workload.of_model Mz.llama2_7b ~seq:512 in
  let r = One_sa.run One_sa.default w in
  Alcotest.(check int) "total = gemm + nl" r.One_sa.total_cycles
    (r.One_sa.gemm_cycles + r.One_sa.nl_cycles_total);
  Alcotest.(check bool) "nonlinear work is visible" true
    (r.One_sa.nl_cycles_total > 0)

let test_onesa_no_cliff () =
  (* every operator runs on the array: cost per element is bounded and
     positive across the whole registry (no scalar-fallback cliff) *)
  List.iter
    (fun op ->
      let c = One_sa.mac_ops_per_elem op in
      Alcotest.(check bool)
        (Printf.sprintf "%s cost sane" (Registry.name op))
        true
        (c >= 1.0 && c <= 16.0))
    Registry.all;
  (* ... in contrast to Gemmini, whose scalar fallback makes silu an order
     of magnitude slower than ONE-SA's in-array evaluation *)
  let silu = nl_instance Registry.Silu in
  Alcotest.(check bool) "beats the Gemmini scalar cliff on silu" true
    (One_sa.nl_cycles One_sa.default silu
    < Gemmini.nl_cycles Gemmini.default silu)

let test_onesa_mode_switch () =
  (* the GEMM <-> nonlinear reconfiguration is charged once per instance *)
  let one = One_sa.nl_cycles One_sa.default (nl_instance Registry.Gelu) in
  let two =
    One_sa.nl_cycles One_sa.default (nl_instance ~count:2 Registry.Gelu)
  in
  Alcotest.(check int) "two instances cost twice one" (2 * one) two;
  Alcotest.(check bool) "switch overhead present" true
    (one > One_sa.default.One_sa.switch_cycles)

let test_onesa_monotone () =
  let cost dim =
    One_sa.nl_cycles One_sa.default
      { Workload.op = Registry.Softmax; rows = 16; dim; nl_count = 1; nl_tag = "t" }
  in
  Alcotest.(check bool) "cycles monotone in elements" true
    (cost 64 < cost 256 && cost 256 < cost 1024);
  Alcotest.(check bool) "relu cheaper than softmax" true
    (One_sa.nl_cycles One_sa.default (nl_instance Registry.Relu)
    < One_sa.nl_cycles One_sa.default (nl_instance Registry.Softmax))

let suite =
  [
    ( "codesign",
      [
        Alcotest.test_case "pool determinism" `Slow test_pool_determinism;
        Alcotest.test_case "repeat determinism" `Quick test_repeat_determinism;
        Alcotest.test_case "beats reference" `Quick test_beats_reference;
        Alcotest.test_case "search invariants" `Quick test_search_invariants;
        Alcotest.test_case "constrained mode" `Quick test_constrained_mode;
      ] );
    ( "one-sa",
      [
        Alcotest.test_case "accounting" `Quick test_onesa_accounting;
        Alcotest.test_case "no scalar cliff" `Quick test_onesa_no_cliff;
        Alcotest.test_case "mode switch per instance" `Quick test_onesa_mode_switch;
        Alcotest.test_case "monotone in elements" `Quick test_onesa_monotone;
      ] );
  ]
