(* Tests for the affine-arithmetic precision analyzer (lib/verify/precision)
   and proven-bound format selection.

   Three angles:
   - the affine domain itself beats intervals where it should: [x - x] is
     exactly zero, the square rule proves [x*x >= 0], every transfer
     operation encloses its concrete result, and a pinned roster kernel
     (rope at Q4.8) fits a format plain intervals cannot justify.
   - format selection: the ladder picks a sub-Q16 format for kernels the
     analysis proves tight (relu -> fp8_e4m3 at bound 0, gelu -> q4.8) and
     falls back honestly where nothing proves (softmax).
   - soundness, adversarially: for every roster kernel x every catalogue
     format with a finite claimed bound, bit-accurate execution (the
     interpreter under the [Precision.rounder] hook) on random in-range
     inputs never exceeds the bound.  The harness runs at domain-pool
     sizes 1/2/4 — results must not depend on evaluation parallelism. *)

open Picachu_ir
module Numfmt = Picachu_numerics.Numfmt
module Affine = Picachu_verify.Affine
module Precision = Picachu_verify.Precision
module Finding = Picachu_verify.Finding
module Absint = Picachu_verify.Absint
module Parallel = Picachu_parallel.Parallel
open Picachu

let qtest = QCheck_alcotest.to_alcotest
let roster = Kernels.all Kernels.picachu @ Kernels.extras Kernels.picachu

(* ---------------------------------------------------------- affine domain *)

let test_affine_cancellation () =
  let ctx = Affine.ctx () in
  let x = Affine.of_interval ctx (-2.0) 2.0 in
  let lo, hi = Affine.interval (Affine.sub x x) in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "x - x is exactly 0" (0.0, 0.0)
    (lo, hi);
  (* an interval domain would answer [-4, 4] here *)
  let y = Affine.of_interval ctx (-2.0) 2.0 in
  let lo', hi' = Affine.interval (Affine.sub x y) in
  Alcotest.(check (pair (float 1e-12) (float 1e-12)))
    "uncorrelated difference stays wide" (-4.0, 4.0) (lo', hi')

let test_affine_square_nonnegative () =
  (* the pinned affine-beats-intervals case: interval arithmetic gives
     [-2,2] * [-2,2] = [-4,4]; the square rule proves x*x in [0,4] *)
  let ctx = Affine.ctx () in
  let x = Affine.of_interval ctx (-2.0) 2.0 in
  let lo, hi = Affine.interval (Affine.mul x x) in
  Alcotest.(check bool) "x*x lower bound >= 0" true (lo >= 0.0);
  Alcotest.(check bool) "x*x upper bound <= 4" true (hi <= 4.0 +. 1e-12);
  (* the same ranges without the shared symbol multiply like intervals *)
  let y = Affine.of_interval ctx (-2.0) 2.0 in
  let lo', _ = Affine.interval (Affine.mul x y) in
  Alcotest.(check bool) "uncorrelated product stays signed" true (lo' < 0.0)

let prop_affine_mul_sound =
  QCheck.Test.make ~name:"affine mul encloses concrete product" ~count:500
    QCheck.(
      quad (float_range (-8.0) 8.0) (float_range 0.0 4.0)
        (float_range (-8.0) 8.0) (float_range 0.0 4.0))
    (fun (ca, wa, cb, wb) ->
      let ctx = Affine.ctx () in
      let a = Affine.of_interval ctx (ca -. wa) (ca +. wa) in
      let b = Affine.of_interval ctx (cb -. wb) (cb +. wb) in
      let lo, hi = Affine.interval (Affine.mul a b) in
      (* endpoints and center of each operand range: products must fall in *)
      List.for_all
        (fun x ->
          List.for_all
            (fun y -> x *. y >= lo -. 1e-9 && x *. y <= hi +. 1e-9)
            [ cb -. wb; cb; cb +. wb ])
        [ ca -. wa; ca; ca +. wa ])

(* Every Affine operation the transfer rules use encloses its concrete
   result.  Operands are drawn three ways: on fresh symbols, sharing a
   symbol through a sum ([b = a + c]) or a sign flip ([b = -a]), and
   physically equal ([b == a], which takes the square and identity
   rules).  Concrete values come from the symbol grid {-1, -1/2, 0, 1/2, 1}
   plus one random point. *)
let prop_affine_ops_sound =
  QCheck.Test.make ~name:"affine ops enclose concrete results" ~count:300
    QCheck.(
      pair
        (quad (float_range (-8.0) 8.0) (float_range 0.0 4.0)
           (float_range (-8.0) 8.0) (float_range 0.0 4.0))
        (pair (float_range (-1.0) 1.0) (float_range (-1.0) 1.0)))
    (fun ((ca, wa, cb, wb), (r1, r2)) ->
      let ctx = Affine.ctx () in
      let a = Affine.of_interval ctx (ca -. wa) (ca +. wa) in
      let c = Affine.of_interval ctx (cb -. wb) (cb +. wb) in
      (* (b, concrete b) for a concrete a = x and c = z *)
      let operands =
        [
          (c, fun _ z -> z);
          (Affine.add a c, fun x z -> x +. z);
          (Affine.neg a, fun x _ -> -.x);
          (a, fun x _ -> x);
        ]
      in
      let inside name form v =
        let lo, hi = Affine.interval form in
        let tol = 1e-9 *. Float.max 1.0 (Float.abs v) in
        v >= lo -. tol && v <= hi +. tol
        || QCheck.Test.fail_reportf "%s: %g outside [%g, %g]" name v lo hi
      in
      let grid = [ -1.0; -0.5; 0.0; 0.5; 1.0 ] in
      List.for_all
        (fun (b, concrete_b) ->
          let blo, bhi = Affine.interval b in
          let binops =
            [
              ("add", Affine.add a b, ( +. ));
              ("sub", Affine.sub a b, ( -. ));
              ("mul", Affine.mul a b, ( *. ));
              ("max_", Affine.max_ ctx a b, Float.max);
              ("min_", Affine.min_ ctx a b, Float.min);
            ]
            @ (if blo > 0.0 || bhi < 0.0 then [ ("div", Affine.div ctx a b, ( /. )) ]
               else [])
          in
          let unops =
            [
              ("abs", Affine.abs ctx b, Float.abs);
              ("floor", Affine.floor ctx b, Float.floor);
              ("neg", Affine.neg b, Float.neg);
            ]
          in
          let join = Affine.join ctx a b in
          List.for_all
            (fun e1 ->
              List.for_all
                (fun e2 ->
                  let x = ca +. (wa *. e1) and z = cb +. (wb *. e2) in
                  let y = concrete_b x z in
                  List.for_all (fun (n, f, op) -> inside n f (op x y)) binops
                  && List.for_all (fun (n, f, op) -> inside n f (op y)) unops
                  && inside "join a" join x && inside "join b" join y)
                (r2 :: grid))
            (r1 :: grid))
        operands)

(* ------------------------------------------- affine beats intervals: rope *)

let test_rope_fits_narrower_than_intervals () =
  (* rope in Q4.8: cos/sin correlations make the rotated outputs provably
     fit, where plain intervals (which multiply [-2,2]-ish ranges outward)
     overflow the format. *)
  let k = List.find (fun k -> k.Kernel.name = "rope") roster in
  let fmt = Numfmt.fixed ~total_bits:12 ~frac_bits:8 in
  let r = Precision.analyze ~fmt k in
  Alcotest.(check bool) "precision proves q4.8 (no overflow finding)" false
    (Finding.has_code "prec-overflow" r.Precision.findings
    || Finding.has_code "prec-unbounded" r.Precision.findings);
  Alcotest.(check bool) "finite proven bound" true
    (Float.is_finite r.Precision.bound)

(* -------------------------------------------------------- format selection *)

let select name = Compiler.select_format ~budget:1e-2
    (List.find (fun k -> k.Kernel.name = name) roster)

let test_select_relu_fp4 () =
  (* relu is exact in every format on in-range inputs: max(x, 0) introduces
     no rounding on an already-quantized value — the 4-bit E2M1 proves
     bound 0 and wins the ladder *)
  let c = select "relu" in
  Alcotest.(check string) "chosen" "fp4_e2m1" (Numfmt.name c.Precision.fmt);
  Alcotest.(check int) "4 bits" 4 (Numfmt.bits c.Precision.fmt);
  Alcotest.(check (float 0.0)) "proven bound 0" 0.0 c.Precision.bound;
  Alcotest.(check bool) "no fallback" false c.Precision.fallback

let test_select_gelu_sub_q16 () =
  (* gelu (LUT form) proves ~6e-3 in Q4.8 — a 12-bit format within the 1e-2
     budget, narrower than the INT16 lane's Q8.8/Q16.16 *)
  let c = select "gelu" in
  Alcotest.(check string) "chosen" "q4.8" (Numfmt.name c.Precision.fmt);
  Alcotest.(check bool) "sub-16-bit" true (Numfmt.bits c.Precision.fmt < 16);
  Alcotest.(check bool) "bound within budget" true
    (c.Precision.bound <= 1e-2);
  Alcotest.(check bool) "no fallback" false c.Precision.fallback

let test_select_softmax_fallback () =
  (* softmax divides by a reduction the analysis cannot bound away from its
     accumulated error — no candidate proves, selection falls back to the
     widest and says so *)
  let c = select "softmax" in
  Alcotest.(check bool) "fallback" true c.Precision.fallback;
  Alcotest.(check bool) "no finite proof" false (Float.is_finite c.Precision.bound);
  Alcotest.(check string) "widest candidate" "fp32" (Numfmt.name c.Precision.fmt);
  Alcotest.(check int) "every candidate tried"
    (List.length Numfmt.catalogue)
    (List.length c.Precision.tried)

let test_select_budget_monotone () =
  (* loosening the budget can only move the choice down-ladder (cheaper) *)
  let k = List.find (fun k -> k.Kernel.name = "gelu") roster in
  let tight = Compiler.select_format ~budget:1e-4 k in
  let loose = Compiler.select_format ~budget:0.5 k in
  Alcotest.(check bool) "looser budget, narrower-or-equal format" true
    (Numfmt.bits loose.Precision.fmt <= Numfmt.bits tight.Precision.fmt)

let test_select_rejects_bad_budgets () =
  (* a budget that is not finite and positive proves nothing: an infinite
     one would let an unbounded format "fit", nan/0/negative ones would
     silently turn every kernel into a fallback *)
  let k = List.find (fun k -> k.Kernel.name = "relu") roster in
  List.iter
    (fun b ->
      match Compiler.select_format ~budget:b k with
      | _ -> Alcotest.failf "budget %g accepted" b
      | exception Invalid_argument _ -> ())
    [ infinity; neg_infinity; nan; 0.0; -1.0 ];
  let var = "PICACHU_ERROR_BUDGET" in
  let with_env v f =
    let old = Sys.getenv_opt var in
    Unix.putenv var v;
    Fun.protect
      ~finally:(fun () -> Unix.putenv var (Option.value old ~default:"1e-2"))
      f
  in
  List.iter
    (fun v ->
      with_env v (fun () ->
          match Precision.default_budget () with
          | b -> Alcotest.failf "%s=%S accepted as %g" var v b
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%S rejected naming the variable" v)
                true
                (String.starts_with ~prefix:var msg)))
    [ "garbage"; "inf"; "nan"; "0"; "-1" ];
  with_env "0.5" (fun () ->
      Alcotest.(check (float 0.0)) "well-formed value read" 0.5
        (Precision.default_budget ()))

(* ------------------------------------------------------ execution rounding *)

let run_arrays k fmt seed =
  let rng = Random.State.make [| seed |] in
  List.map
    (fun s ->
      ( s,
        Array.init 48 (fun _ ->
            Numfmt.quantize fmt (Random.State.float rng 4.0 -. 2.0)) ))
    k.Kernel.inputs

let test_rounder_quantizes_outputs () =
  (* under the rounder hook every stored value is representable: quantizing
     an output again must be the identity *)
  let k = List.find (fun k -> k.Kernel.name = "gelu") roster in
  let fmt = Numfmt.e4m3 in
  let env = { Interp.arrays = run_arrays k fmt 7; scalars = [ ("n", 48.0) ] } in
  let r = Interp.run ~round:(Precision.rounder fmt) k env in
  List.iter
    (fun (s, a) ->
      Array.iter
        (fun v ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s value representable" s)
            (Numfmt.quantize fmt v) v)
        a)
    r.Interp.out_arrays

(* ------------------------------------------------------ soundness harness *)

(* Every (kernel, format) pair with a finite claimed bound, analyzed once. *)
let claims =
  lazy
    (List.concat_map
       (fun (k : Kernel.t) ->
         List.filter_map
           (fun fmt ->
             let r = Precision.analyze ~fmt k in
             if Float.is_finite r.Precision.bound then
               Some (k, fmt, r.Precision.bound)
             else None)
           Numfmt.catalogue)
       roster)

let concrete_error k fmt seed =
  let arrays = run_arrays k fmt seed in
  let env = { Interp.arrays; scalars = [ ("n", 48.0) ] } in
  let reference = Interp.run k env in
  let finite = Interp.run ~round:(Precision.rounder fmt) k env in
  List.fold_left
    (fun acc (name, a) ->
      let b = List.assoc name finite.Interp.out_arrays in
      let worst = ref 0.0 in
      Array.iteri
        (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i))))
        a;
      Float.max acc !worst)
    0.0 reference.Interp.out_arrays

let prop_soundness =
  (* 4 trials x 48 elements per qcheck case, ~200 cases from qcheck's
     generator: every claim sees well over 100 random in-range inputs *)
  QCheck.Test.make ~name:"proven bound dominates bit-accurate error" ~count:20
    (QCheck.int_bound 0x3FFFFF) (fun seed ->
      List.for_all
        (fun ((k : Kernel.t), fmt, bound) ->
          let ok = ref true in
          for t = 0 to 3 do
            let e = concrete_error k fmt ((seed * 4) + t) in
            if e > bound then begin
              QCheck.Test.fail_reportf
                "%s under %s: concrete error %.9g exceeds proven bound %.9g"
                k.Kernel.name (Numfmt.name fmt) e bound
            end;
            ok := !ok && e <= bound
          done;
          !ok)
        (Lazy.force claims))

let soundness_at_pool size =
  Alcotest.test_case
    (Printf.sprintf "soundness sweep (pool %d)" size)
    `Slow
    (fun () -> Parallel.with_pool ~size (fun () -> QCheck.Test.check_exn prop_soundness))

let test_claims_cover_roster () =
  (* the finite-bound set is not vacuous: the sweep really exercises
     several kernels and every format in the catalogue *)
  let cs = Lazy.force claims in
  let kernels =
    List.sort_uniq compare (List.map (fun ((k : Kernel.t), _, _) -> k.Kernel.name) cs)
  in
  let formats =
    List.sort_uniq compare (List.map (fun (_, fmt, _) -> Numfmt.name fmt) cs)
  in
  Alcotest.(check bool) "several kernels prove bounds" true
    (List.length kernels >= 4);
  Alcotest.(check int) "every format proves on some kernel"
    (List.length Numfmt.catalogue) (List.length formats)

(* ------------------------------------------------------ fixpoint stopping *)

let taylor name = List.find (fun k -> k.Kernel.name = name) roster

(* fixpoint rounds [Precision.analyze] runs over all of [k]'s loops *)
let rounds_under fmt (k : Kernel.t) =
  Absint.reset_fixpoint_rounds ();
  ignore (Precision.analyze ~fmt k);
  Absint.fixpoint_rounds ()

let test_elementwise_loops_settle () =
  (* the induction phi grows every round, but no data op reads it: the
     fixpoint ends once the data cells repeat, not at the trip cap *)
  List.iter
    (fun name ->
      let k = taylor name in
      let cap = 3 * List.length k.Kernel.loops in
      List.iter
        (fun fmt ->
          let r = rounds_under fmt k in
          if r > cap then
            Alcotest.failf "%s under %s: %d rounds, at most %d expected" name
              (Numfmt.name fmt) r cap)
        Numfmt.catalogue)
    [ "relu"; "gelu"; "rope" ]

let test_reduction_walks_to_cap () =
  (* softmax's sum grows every round: its loop must run all 1025 rounds
     (the trip cap plus the first), never cut short.  Its rounds are the
     difference between analysing the first two loops and the first one. *)
  let k = taylor "softmax" in
  let prefix n = { k with Kernel.loops = List.filteri (fun i _ -> i < n) k.Kernel.loops } in
  List.iter
    (fun fmt ->
      Alcotest.(check int)
        (Printf.sprintf "softmax.2 rounds under %s" (Numfmt.name fmt))
        1025
        (rounds_under fmt (prefix 2) - rounds_under fmt (prefix 1)))
    Numfmt.catalogue

(* y[i] = max(i, 1000): a data op reads the induction phi and stores the
   result.  Its cell sits at [1000, 1000] until the phi passes 1000, so a
   stopping test that ignored the skeleton here would end the walk at
   round 2 with the wrong answer.  Built by hand — [Kernel.validate]
   rejects it — so only the analyses see it. *)
let iv_as_data =
  let i id op args = Instr.make ~id ~op ~args () in
  {
    Kernel.name = "iv-as-data";
    klass = Kernel.EO;
    inputs = [];
    outputs = [ "y" ];
    scalar_inputs = [ "n" ];
    loops =
      [
        {
          Kernel.label = "iv.1";
          pre = [];
          reduction = false;
          exports = [];
          step = 1;
          vector_width = 1;
          body =
            [
              i 0 (Op.Const 0.0) [];
              i 1 Op.Phi [ 0; 6 ];
              i 2 (Op.Const 1000.0) [];
              i 3 (Op.Bin Op.Max) [ 1; 2 ];
              i 4 (Op.Store "y") [ 1; 3 ];
              i 5 (Op.Const 1.0) [];
              i 6 (Op.Bin Op.Add) [ 1; 5 ];
              i 7 (Op.Input "n") [];
              i 8 (Op.Cmp Op.Lt) [ 6; 7 ];
              i 9 Op.Br [ 8 ];
            ];
        };
      ];
  }

let test_coupled_loop_walks_to_cap () =
  (* when data reads the skeleton, skeleton cells stay in the stability
     test, so the walk reaches the trip-bounded extreme: y covers 1024 *)
  Alcotest.(check bool) "validate rejects it" true
    (Result.is_error (Kernel.validate iv_as_data));
  let r = Precision.analyze ~fmt:Numfmt.Fp32 iv_as_data in
  let _, (_, hi), _ = List.find (fun (s, _, _) -> s = "y") r.Precision.outputs in
  if hi < 1023.0 then Alcotest.failf "precision: stored hi %g < 1023" hi;
  (* at Q8.8 the max overflows, and the finding carries the full
     trip-bounded interval *)
  let expected = "max range [1000, 1024] exceeds q8.8" in
  let q8_8 = Numfmt.fixed ~total_bits:16 ~frac_bits:8 in
  match
    List.find_opt
      (fun (f : Finding.t) -> f.Finding.loc.Finding.node = Some 3)
      (Precision.analyze ~fmt:q8_8 iv_as_data).Precision.findings
  with
  | Some f ->
      if
        not
          (f.Finding.code = "prec-overflow"
          && String.starts_with ~prefix:expected f.Finding.message)
      then Alcotest.failf "q8.8: %s does not start %S" (Finding.to_string f) expected
  | None -> Alcotest.fail "q8.8: no finding on the max"

(* -------------------------------------------------------------- findings *)

let test_findings_deterministic_across_pools () =
  (* the analysis result (and its findings order, via Finding.sort in the
     printers) must not depend on the domain-pool size *)
  let digest size =
    Parallel.with_pool ~size (fun () ->
        String.concat "\n"
          (List.concat_map
             (fun (k : Kernel.t) ->
               let c = Compiler.select_format ~budget:1e-2 k in
               let r = Precision.analyze ~fmt:c.Precision.fmt k in
               Printf.sprintf "%s %s %.17g" k.Kernel.name
                 (Numfmt.name c.Precision.fmt) c.Precision.bound
               :: List.map Finding.to_string (Finding.sort r.Precision.findings))
             roster))
  in
  let reference = digest 1 in
  List.iter
    (fun size ->
      Alcotest.(check string)
        (Printf.sprintf "pool %d matches pool 1" size)
        reference (digest size))
    [ 2; 4 ]

let suite =
  [
    ( "precision",
      [
        Alcotest.test_case "affine cancellation" `Quick test_affine_cancellation;
        Alcotest.test_case "affine square rule beats intervals" `Quick
          test_affine_square_nonnegative;
        qtest prop_affine_mul_sound;
        qtest prop_affine_ops_sound;
        Alcotest.test_case "rope fits q4.8 where intervals cannot" `Quick
          test_rope_fits_narrower_than_intervals;
        Alcotest.test_case "relu selects fp4_e2m1 at bound 0" `Quick
          test_select_relu_fp4;
        Alcotest.test_case "gelu selects sub-q16 format" `Quick
          test_select_gelu_sub_q16;
        Alcotest.test_case "softmax falls back honestly" `Quick
          test_select_softmax_fallback;
        Alcotest.test_case "budget monotone" `Quick test_select_budget_monotone;
        Alcotest.test_case "invalid budgets rejected" `Quick
          test_select_rejects_bad_budgets;
        Alcotest.test_case "rounder quantizes outputs" `Quick
          test_rounder_quantizes_outputs;
        Alcotest.test_case "claims cover roster" `Quick test_claims_cover_roster;
        Alcotest.test_case "element-wise loops settle early" `Quick
          test_elementwise_loops_settle;
        Alcotest.test_case "reduction walks to the cap" `Quick
          test_reduction_walks_to_cap;
        Alcotest.test_case "coupled loop walks to the cap" `Quick
          test_coupled_loop_walks_to_cap;
        soundness_at_pool 1;
        soundness_at_pool 2;
        soundness_at_pool 4;
        Alcotest.test_case "deterministic across pools" `Quick
          test_findings_deterministic_across_pools;
      ] );
  ]
