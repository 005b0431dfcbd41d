(* Verdicts of `workloads.exe compare` on hand-written results pairs. *)

let bounds = [ ("op_p50_ms", 0.10); ("ops_per_s", 0.10); ("op_p90_ms", 0.15) ]

(* A one-set results file with one workload; each metric is
   (name, better, exact, value, per-round values). *)
let results ?(seed = 1) metrics =
  let metric (name, better, exact, value, rounds) =
    Printf.sprintf
      {|"%s": {"value": %g, "unit": "ms", "better": "%s", "exact": %b, "q1": 0, "q3": 0, "n": 6, "rounds": [%s]}|}
      name value better exact
      (String.concat ", " (List.map (Printf.sprintf "%g") rounds))
  in
  Json.of_string
    (Printf.sprintf
       {|{"sets": [{"meta": {"seed": %d}, "workloads": {"w": {"metrics": {%s}}}}]}|}
       seed
       (String.concat ", " (List.map metric metrics)))

let verdicts ?base_seed ?next_seed base next =
  let sets j = Json.to_list (Json.member "sets" j) in
  Compare.rows ~bounds (sets (results ?seed:base_seed base)) (sets (results ?seed:next_seed next))
  |> List.map (fun r -> (r.Compare.metric, Compare.verdict_name r.Compare.verdict))

let p50 value rounds = ("op_p50_ms", "lower", false, value, rounds)
let steady v = [ v *. 0.99; v; v *. 1.01; v; v *. 0.995; v *. 1.005 ]
let check name expected actual = Alcotest.(check (list (pair string string))) name expected actual

let test_identical () =
  check "identical" [ ("op_p50_ms", "same") ] (verdicts [ p50 100.0 (steady 100.0) ] [ p50 100.0 (steady 100.0) ])

let test_within_bound () =
  check "+5% under a 10% bound" [ ("op_p50_ms", "same") ]
    (verdicts [ p50 100.0 (steady 100.0) ] [ p50 105.0 (steady 105.0) ])

let test_worse () =
  check "+20%, tight rounds" [ ("op_p50_ms", "worse") ]
    (verdicts [ p50 100.0 (steady 100.0) ] [ p50 120.0 (steady 120.0) ])

let test_better () =
  check "-20%, tight rounds" [ ("op_p50_ms", "better") ]
    (verdicts [ p50 100.0 (steady 100.0) ] [ p50 80.0 (steady 80.0) ])

let noisy v = [ v *. 0.7; v *. 1.3; v; v *. 0.8; v *. 1.2; v ]

let test_unresolved () =
  check "+20%, rounds spread 40%" [ ("op_p50_ms", "unresolved") ]
    (verdicts [ p50 100.0 (noisy 100.0) ] [ p50 120.0 (noisy 120.0) ])

let test_noisy_but_every_round_worse () =
  check "noisy, every new round slower" [ ("op_p50_ms", "worse") ]
    (verdicts
       [ p50 100.0 [ 80.0; 100.0; 120.0; 90.0; 110.0; 100.0 ] ]
       [ p50 200.0 [ 160.0; 200.0; 240.0; 180.0; 220.0; 200.0 ] ])

let test_noisy_but_every_round_better () =
  check "noisy, every new round faster" [ ("op_p50_ms", "better") ]
    (verdicts
       [ p50 200.0 [ 160.0; 200.0; 240.0; 180.0; 220.0; 200.0 ] ]
       [ p50 100.0 [ 80.0; 100.0; 120.0; 90.0; 110.0; 100.0 ] ])

let test_higher_is_better () =
  let ops v = ("ops_per_s", "higher", false, v, steady v) in
  check "throughput down 20%" [ ("ops_per_s", "worse") ] (verdicts [ ops 10.0 ] [ ops 8.0 ]);
  check "throughput up 20%" [ ("ops_per_s", "better") ] (verdicts [ ops 10.0 ] [ ops 12.0 ])

let test_exact () =
  let ii v = ("model.sum_ii", "lower", true, v, [ v ]) in
  check "one more cycle" [ ("model.sum_ii", "worse") ] (verdicts [ ii 64.0 ] [ ii 65.0 ]);
  check "one fewer cycle" [ ("model.sum_ii", "better") ] (verdicts [ ii 64.0 ] [ ii 63.0 ]);
  check "unchanged" [ ("model.sum_ii", "same") ] (verdicts [ ii 64.0 ] [ ii 64.0 ]);
  check "other seed" [ ("model.sum_ii", "unresolved") ]
    (verdicts ~next_seed:2 [ ii 64.0 ] [ ii 65.0 ])

let test_unbounded_metrics_skipped () =
  check "a metric with no bound is not judged" []
    (verdicts [ ("gc.alloc_kw", "lower", false, 1.0, [ 1.0 ]) ] [ ("gc.alloc_kw", "lower", false, 9.0, [ 9.0 ]) ])

let test_set_selection () =
  let file = Filename.temp_file ~temp_dir:Filename.current_dir_name "results" ".json" in
  let set v =
    Printf.sprintf
      {|{"meta": {"seed": 1}, "workloads": {"w": {"metrics": {"op_p50_ms": {"value": %g, "better": "lower", "exact": false, "rounds": [%g]}}}}}|}
      v v
  in
  let oc = open_out file in
  Printf.fprintf oc {|{"sets": [%s, %s]}|} (set 100.0) (set 300.0);
  close_out oc;
  let value sets = (List.hd (Compare.rows ~bounds sets sets)).Compare.base in
  Alcotest.(check (float 0.0)) "@0" 100.0 (value (Compare.load (file ^ "@0")));
  Alcotest.(check (float 0.0)) "@1" 300.0 (value (Compare.load (file ^ "@1")));
  Alcotest.(check (float 0.0)) "both sets: their median" 200.0 (value (Compare.load file));
  Sys.remove file

let () =
  Alcotest.run "compare"
    [
      ( "verdicts",
        [
          Alcotest.test_case "identical runs are the same" `Quick test_identical;
          Alcotest.test_case "a move within the bound is the same" `Quick test_within_bound;
          Alcotest.test_case "a move beyond the bound is worse" `Quick test_worse;
          Alcotest.test_case "a gain beyond the bound is better" `Quick test_better;
          Alcotest.test_case "spread beyond the bound is unresolved" `Quick test_unresolved;
          Alcotest.test_case "noisy but every round worse" `Quick test_noisy_but_every_round_worse;
          Alcotest.test_case "noisy but every round better" `Quick test_noisy_but_every_round_better;
          Alcotest.test_case "higher-is-better metrics" `Quick test_higher_is_better;
          Alcotest.test_case "modelled metrics are exact" `Quick test_exact;
          Alcotest.test_case "metrics without a bound are skipped" `Quick test_unbounded_metrics_skipped;
          Alcotest.test_case "FILE@K picks one set" `Quick test_set_selection;
        ] );
    ]
