(* Tests of the independent static verifier (lib/verify).

   Three angles:
   - positive: the whole kernel library (both variants, extras included)
     lints clean, every mapping the compiler emits validates, and the same
     holds on every architecture of the default Explore sweep grid — pinned
     as a zero-findings golden.
   - negative: programmatic mutants of known-good mappings / DFGs / loops
     must each trip exactly the injected finding class (slot collisions,
     capability violations, timing violations, dishonest statistics, broken
     SSA, ...).  The verifier earns its keep only if it rejects what the
     mapper would never emit.
   - precision analysis: verdicts at Q8.8 on the library, overflow and
     zero-divisor findings, and containment — every interpreter output on
     the standard test vectors lies in the value interval the analysis
     proves, in every catalogue format. *)

open Picachu_ir
module Dfg = Picachu_dfg.Dfg
module Arch = Picachu_cgra.Arch
module Mapper = Picachu_cgra.Mapper
module Verify = Picachu_verify.Verify
module Precision = Picachu_verify.Precision
module Finding = Picachu_verify.Finding
module Numfmt = Picachu_numerics.Numfmt
module Parallel = Picachu_parallel.Parallel
module Rng = Picachu_tensor.Rng
open Picachu

let library variant = Kernels.all variant @ Kernels.extras variant

let options_of = function
  | Kernels.Picachu _ -> Compiler.picachu_options ()
  | Kernels.Baseline -> Compiler.baseline_options ()

let variant_name = Kernels.variant_name

(* All structural (non-range) findings for one compiled kernel. *)
let structural_findings (opts : Compiler.options) (c : Compiler.compiled) =
  Verify.lint_kernel c.Compiler.kernel
  @ List.concat_map
      (fun (cl : Compiler.compiled_loop) ->
        Verify.check_loop ~arch:opts.Compiler.arch ~source:cl.Compiler.source
          cl.Compiler.dfg cl.Compiler.mapping)
      c.Compiler.loops

(* distinct finding codes, sorted *)
let codes fs = List.sort_uniq compare (List.map (fun (f : Finding.t) -> f.Finding.code) fs)

let fail_findings ctx = function
  | [] -> ()
  | fs ->
      Alcotest.failf "%s: %s" ctx
        (String.concat "; " (List.map Finding.to_string fs))

(* ------------------------------------------------- positive: clean library *)

(* Golden: zero structural findings of ANY severity across the library.
   The precision analysis legitimately warns (reduction growth is real);
   the structural passes must be silent — a new warning here is a regression
   either in the compiler or in the verifier's model of it. *)
let test_library_clean () =
  let total = ref 0 in
  List.iter
    (fun variant ->
      let opts = options_of variant in
      List.iter
        (fun (k : Kernel.t) ->
          let c = Compiler.compile opts k in
          let fs = structural_findings opts c in
          total := !total + List.length fs;
          fail_findings
            (Printf.sprintf "%s (%s)" k.Kernel.name (variant_name variant))
            fs)
        (library variant))
    [ Kernels.picachu; Kernels.Baseline ];
  Alcotest.(check int) "structural findings across library" 0 !total

(* What [picachu lint] runs: the precision analysis at each kernel's
   selected format may warn but must never produce Error-severity findings
   on the library (it is advisory), and must not crash on any kernel. *)
let test_library_precision_no_errors () =
  List.iter
    (fun variant ->
      List.iter
        (fun (k : Kernel.t) ->
          let c = Compiler.select_format k in
          let r = Precision.analyze ~fmt:c.Precision.fmt k in
          fail_findings k.Kernel.name (Finding.errors r.Precision.findings))
        (library variant))
    [ Kernels.picachu; Kernels.Baseline ]

(* Every mapping produced across the default Explore sweep grid validates:
   the acceptance bar is 100% of Mapper.map_dfg results, every sweep
   architecture, whole roster. *)
let test_sweep_architectures_validate () =
  let sizes = [ (3, 3); (4, 4); (4, 8); (5, 5) ] in
  let cot_shares = [ 1.0 /. 3.0; 0.5; 2.0 /. 3.0; 5.0 /. 6.0 ] in
  let grid =
    Array.of_list
      (List.concat_map
         (fun (rows, cols) -> List.map (fun cot -> (rows, cols, cot)) cot_shares)
         sizes)
  in
  let roster =
    List.filter
      (fun (k : Kernel.t) -> k.Kernel.name <> "softmax_online")
      (Kernels.all Kernels.picachu)
  in
  let results =
    Parallel.parallel_map_array
      (fun (rows, cols, cot_share) ->
        let arch = Arch.hetero_mix ~rows ~cols ~cot_share in
        let opts = Compiler.picachu_options ~arch () in
        List.fold_left
          (fun (mapped, bad) (k : Kernel.t) ->
            match Compiler.compile_result opts k with
            | Error _ -> (mapped, bad) (* unmappable points are Explore's concern *)
            | Ok c ->
                let errs = Finding.errors (structural_findings opts c) in
                if errs = [] then (mapped + 1, bad)
                else
                  ( mapped,
                    Printf.sprintf "%s on %s: %s" k.Kernel.name arch.Arch.name
                      (Finding.to_string (List.hd errs))
                    :: bad ))
          (0, []) roster)
      grid
  in
  let mapped = Array.fold_left (fun acc (m, _) -> acc + m) 0 results in
  let bad = Array.fold_left (fun acc (_, b) -> b @ acc) [] results in
  (match bad with [] -> () | b -> Alcotest.failf "%s" (String.concat "; " b));
  if mapped < Array.length grid then
    Alcotest.failf "only %d mappings validated across %d design points" mapped
      (Array.length grid)

(* The PICACHU_VERIFY knob must be pure observation: identical mappings with
   the gate off and on. *)
let test_knob_preserves_mappings () =
  let fingerprint (c : Compiler.compiled) =
    List.map
      (fun (cl : Compiler.compiled_loop) ->
        let m = cl.Compiler.mapping in
        (m.Mapper.ii, m.Mapper.makespan, m.Mapper.routed_hops,
         Array.to_list m.Mapper.schedule))
      c.Compiler.loops
  in
  let compile_with value =
    Unix.putenv "PICACHU_VERIFY" value;
    Fun.protect
      ~finally:(fun () -> Unix.putenv "PICACHU_VERIFY" "1")
      (fun () ->
        Compiler.compile (Compiler.picachu_options ())
          (Kernels.gelu Kernels.picachu))
  in
  let off = fingerprint (compile_with "0") in
  let on = fingerprint (compile_with "1") in
  Alcotest.(check bool) "gate off/on produce identical mappings" true (off = on)

(* ------------------------------------------------ negative: mapping mutants *)

(* A deterministic known-good (arch, dfg, mapping) triple to mutate. *)
let victim =
  lazy
    (let opts = Compiler.picachu_options () in
     let c = Compiler.compile_with_unroll opts 1 (Kernels.gelu Kernels.picachu) in
     let cl = List.hd c.Compiler.loops in
     (opts.Compiler.arch, cl.Compiler.dfg, cl.Compiler.mapping))

let with_placement (m : Mapper.mapping) u p =
  let s = Array.copy m.Mapper.schedule in
  s.(u) <- p;
  { m with Mapper.schedule = s }

let codes_of arch g m = codes (Verify.check_mapping arch g m)

let test_mapping_unmutated_clean () =
  let arch, g, m = Lazy.force victim in
  fail_findings "unmutated gelu mapping" (Verify.check_mapping arch g m)

let test_mutant_slot_collision () =
  let arch, g, m = Lazy.force victim in
  (* park node u on node v's exact slot, picking a v whose tile can also
     execute u so the only necessary finding is the collision *)
  let n = Dfg.node_count g in
  let pair = ref None in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if !pair = None && u <> v then begin
        let pv = m.Mapper.schedule.(v) in
        if Arch.supports arch ~tile:pv.Mapper.tile g.Dfg.nodes.(u).Dfg.op then
          pair := Some (u, pv)
      end
    done
  done;
  match !pair with
  | None -> Alcotest.fail "no collision candidate in victim"
  | Some (u, pv) ->
      let codes = codes_of arch g (with_placement m u pv) in
      Alcotest.(check bool) "slot-collision reported" true
        (List.mem "slot-collision" codes)

let test_mutant_capability () =
  let arch, g, m = Lazy.force victim in
  (* move a non-memory node to a tile that cannot execute it *)
  let n = Dfg.node_count g in
  let tiles = Arch.tiles arch in
  let found = ref None in
  for u = 0 to n - 1 do
    for t = 0 to tiles - 1 do
      let op = g.Dfg.nodes.(u).Dfg.op in
      if !found = None && (not (Op.is_memory op)) && not (Arch.supports arch ~tile:t op)
      then found := Some (u, t)
    done
  done;
  match !found with
  | None -> Alcotest.fail "no capability-violation candidate (arch too universal)"
  | Some (u, t) ->
      let p = { m.Mapper.schedule.(u) with Mapper.tile = t } in
      let codes = codes_of arch g (with_placement m u p) in
      Alcotest.(check bool) "capability reported" true (List.mem "capability" codes)

let test_mutant_mem_port () =
  let arch, g, m = Lazy.force victim in
  let n = Dfg.node_count g in
  let tiles = Arch.tiles arch in
  let found = ref None in
  for u = 0 to n - 1 do
    for t = 0 to tiles - 1 do
      let op = g.Dfg.nodes.(u).Dfg.op in
      if
        !found = None && Op.is_memory op
        && (not (Arch.has_mem_port arch t))
        && not (Arch.supports arch ~tile:t op)
      then found := Some (u, t)
    done
  done;
  match !found with
  | None -> Alcotest.fail "no mem-port candidate (every tile has a port?)"
  | Some (u, t) ->
      let p = { m.Mapper.schedule.(u) with Mapper.tile = t } in
      let codes = codes_of arch g (with_placement m u p) in
      Alcotest.(check bool) "mem-port reported" true (List.mem "mem-port" codes)

let test_mutant_timing () =
  let arch, g, m = Lazy.force victim in
  (* schedule a consumer at its producer's own cycle: latency >= 1 makes the
     dependence inequality impossible *)
  match
    List.find_opt
      (fun (e : Dfg.edge) -> e.Dfg.src <> e.Dfg.dst && e.Dfg.distance = 0)
      g.Dfg.edges
  with
  | None -> Alcotest.fail "victim has no forward edge"
  | Some e ->
      let ps = m.Mapper.schedule.(e.Dfg.src) in
      let p = { m.Mapper.schedule.(e.Dfg.dst) with Mapper.time = ps.Mapper.time } in
      let codes = codes_of arch g (with_placement m e.Dfg.dst p) in
      Alcotest.(check bool) "timing reported" true (List.mem "timing" codes)

let test_mutant_hops_mismatch () =
  let arch, g, m = Lazy.force victim in
  let codes = codes_of arch g { m with Mapper.routed_hops = m.Mapper.routed_hops + 1 } in
  Alcotest.(check (list string)) "only hops-mismatch" [ "hops-mismatch" ] codes

let test_mutant_makespan_mismatch () =
  let arch, g, m = Lazy.force victim in
  let codes = codes_of arch g { m with Mapper.makespan = m.Mapper.makespan + 1 } in
  Alcotest.(check (list string)) "only makespan-mismatch" [ "makespan-mismatch" ] codes

let test_mutant_ii_range () =
  let arch, g, m = Lazy.force victim in
  let codes = codes_of arch g { m with Mapper.ii = 0 } in
  Alcotest.(check bool) "ii-range reported" true (List.mem "ii-range" codes)

(* ---------------------------------------------------- negative: DFG mutants *)

let dfg_codes ?source g = codes (Verify.check_dfg ?source g)

let test_dfg_unmutated_clean () =
  let _, g, _ = Lazy.force victim in
  fail_findings "unmutated gelu DFG" (Verify.check_dfg g)

let test_dfg_mutant_edge_distance () =
  let _, g, _ = Lazy.force victim in
  let e = List.hd g.Dfg.edges in
  let g' = { g with Dfg.edges = { e with Dfg.distance = 2 } :: List.tl g.Dfg.edges } in
  Alcotest.(check bool) "edge-distance reported" true
    (List.mem "edge-distance" (dfg_codes g'))

let test_dfg_mutant_edge_endpoint () =
  let _, g, _ = Lazy.force victim in
  let bogus = { Dfg.src = Dfg.node_count g; dst = 0; distance = 0 } in
  let g' = { g with Dfg.edges = bogus :: g.Dfg.edges } in
  Alcotest.(check bool) "edge-endpoint reported" true
    (List.mem "edge-endpoint" (dfg_codes g'))

let test_dfg_mutant_back_edge_target () =
  let _, g, _ = Lazy.force victim in
  (* loop-carried edge into a node with no phi member *)
  let target = ref None in
  Array.iteri
    (fun i (node : Dfg.node) ->
      if !target = None && not (List.mem Op.Phi node.Dfg.members) then target := Some i)
    g.Dfg.nodes;
  match !target with
  | None -> Alcotest.fail "every node carries a phi?"
  | Some d ->
      let g' =
        { g with Dfg.edges = { Dfg.src = d; dst = d; distance = 1 } :: g.Dfg.edges }
      in
      Alcotest.(check bool) "back-edge-target reported" true
        (List.mem "back-edge-target" (dfg_codes g'))

let test_dfg_mutant_forward_cycle () =
  let _, g, _ = Lazy.force victim in
  (* reverse a forward edge: the distance-0 subgraph now has a 2-cycle *)
  match
    List.find_opt
      (fun (e : Dfg.edge) -> e.Dfg.src <> e.Dfg.dst && e.Dfg.distance = 0)
      g.Dfg.edges
  with
  | None -> Alcotest.fail "victim has no forward edge"
  | Some e ->
      let rev = { Dfg.src = e.Dfg.dst; dst = e.Dfg.src; distance = 0 } in
      let g' = { g with Dfg.edges = rev :: g.Dfg.edges } in
      Alcotest.(check bool) "forward-cycle reported" true
        (List.mem "forward-cycle" (dfg_codes g'))

let test_dfg_mutant_origin_coverage () =
  let opts = Compiler.picachu_options () in
  let c = Compiler.compile_with_unroll opts 1 (Kernels.gelu Kernels.picachu) in
  let cl = List.hd c.Compiler.loops in
  let g = cl.Compiler.dfg and source = cl.Compiler.source in
  fail_findings "unmutated origins" (Verify.check_dfg ~source g);
  (* steal another node's origin: one source instruction becomes claimed
     twice and the victim's own origin goes unclaimed *)
  let nodes = Array.copy g.Dfg.nodes in
  let a = nodes.(0) and b = nodes.(1) in
  let a' = { a with Dfg.origins = b.Dfg.origins } in
  nodes.(0) <- a';
  let g' = { g with Dfg.nodes = nodes } in
  Alcotest.(check bool) "origin-coverage reported" true
    (List.mem "origin-coverage" (dfg_codes ~source g'))

(* --------------------------------------------------- negative: lint mutants *)

let lint_codes (k : Kernel.t) = codes (Verify.lint_kernel k)

let map_first_loop f (k : Kernel.t) =
  match k.Kernel.loops with
  | l :: rest -> { k with Kernel.loops = f l :: rest }
  | [] -> k

let test_lint_mutant_forward_ref () =
  let k = Kernels.relu Kernels.picachu in
  (* make some non-phi instruction consume its own (not yet computed) result *)
  let mutate (l : Kernel.loop) =
    let body =
      List.map
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Op.Bin _ -> { i with Instr.args = List.map (fun _ -> i.Instr.id) i.Instr.args }
          | _ -> i)
        l.Kernel.body
    in
    { l with Kernel.body = body }
  in
  Alcotest.(check bool) "forward-ref reported" true
    (List.mem "forward-ref" (lint_codes (map_first_loop mutate k)))

let test_lint_mutant_arity () =
  let k = Kernels.relu Kernels.picachu in
  let mutate (l : Kernel.loop) =
    let body =
      List.map
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Op.Bin _ -> { i with Instr.args = 0 :: i.Instr.args }
          | _ -> i)
        l.Kernel.body
    in
    { l with Kernel.body = body }
  in
  Alcotest.(check bool) "arity reported" true
    (List.mem "arity" (lint_codes (map_first_loop mutate k)))

let test_lint_mutant_branch_count () =
  let k = Kernels.relu Kernels.picachu in
  let mutate (l : Kernel.loop) =
    (* the branch is the last instruction; dropping it keeps ids dense *)
    let body =
      List.filter (fun (i : Instr.t) -> i.Instr.op <> Op.Br) l.Kernel.body
    in
    { l with Kernel.body = body }
  in
  Alcotest.(check bool) "branch-count reported" true
    (List.mem "branch-count" (lint_codes (map_first_loop mutate k)))

let test_lint_mutant_undeclared_stream () =
  let k = Kernels.relu Kernels.picachu in
  Alcotest.(check bool) "undeclared-stream reported" true
    (List.mem "undeclared-stream" (lint_codes { k with Kernel.inputs = [] }))

let test_lint_mutant_undeclared_output () =
  let k = Kernels.relu Kernels.picachu in
  Alcotest.(check bool) "undeclared output store reported" true
    (List.mem "undeclared-stream" (lint_codes { k with Kernel.outputs = [] }))

let test_lint_dead_def_warning () =
  let b = Builder.create () in
  let x = Builder.load b "x" in
  let _dead = Builder.add b x x in
  Builder.store b "y" x;
  let loop = Builder.finish b ~label:"dead.1" ~trip_input:"n" () in
  let k =
    {
      Kernel.name = "dead";
      klass = Kernel.EO;
      loops = [ loop ];
      inputs = [ "x" ];
      outputs = [ "y" ];
      scalar_inputs = [ "n" ];
    }
  in
  let fs = Verify.lint_kernel k in
  Alcotest.(check bool) "dead-def reported" true (List.mem "dead-def" (codes fs));
  (* advisory, not gating *)
  Alcotest.(check int) "dead-def is not an Error" 0 (List.length (Finding.errors fs))

(* Regression: Transform.unroll used to re-emit every constant of the source
   loop, leaving the old induction-step literal dead (its only consumer, the
   skeleton's iv_add, is re-synthesized around a fresh uf constant).  The
   linter found this on the library; unrolled kernels must now lint clean. *)
let test_unroll_no_dead_consts () =
  List.iter
    (fun uf ->
      List.iter
        (fun (k : Kernel.t) ->
          let u = Transform.unroll_kernel uf k in
          let dead =
            List.filter (fun (f : Finding.t) -> f.Finding.code = "dead-def")
              (Verify.lint_kernel u)
          in
          fail_findings (Printf.sprintf "%s UF%d" k.Kernel.name uf) dead)
        (library Kernels.picachu))
    [ 2; 4 ]

(* ------------------------------------------------------- precision analysis *)

let test_finding_sort_deterministic () =
  let f ?kernel ?loop ?node sev code =
    Finding.make ?kernel ?loop ?node Finding.Precision_check sev ~code "m"
  in
  let a = f ~kernel:"k1" Finding.Warning "prec-overflow" in
  let b = f ~kernel:"k1" Finding.Error "bad-ssa" in
  let c = f ~kernel:"k0" ~loop:"l0" ~node:3 Finding.Warning "prec-overflow" in
  let d = f ~kernel:"k0" ~loop:"l0" ~node:1 Finding.Warning "prec-overflow" in
  let e = f Finding.Warning "advice" in
  let want = [ b; c; d; a; e ] in
  let want = List.sort Finding.compare want in
  (* every permutation sorts to the same list *)
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( != ) x) l)))
          l
  in
  List.iter
    (fun p ->
      Alcotest.(check (list string))
        "permutation-invariant order"
        (List.map Finding.to_string want)
        (List.map Finding.to_string (Finding.sort p)))
    (perms [ a; b; c; d; e ]);
  (* severity dominates, then code, then location *)
  match want with
  | first :: _ ->
      Alcotest.(check string) "errors first" (Finding.to_string b)
        (Finding.to_string first)
  | [] -> Alcotest.fail "empty sort"

let q8_8 = Numfmt.fixed ~total_bits:16 ~frac_bits:8

(* no finding at all: every data-path value provably fits the format with
   a finite error bound *)
let proven_at fmt k = (Precision.analyze ~fmt k).Precision.findings = []

let test_q8_8_verdicts () =
  (* element-wise Picachu kernels prove Q8.8 on [-2,2] (silu and swiglu
     do not: their exp chains carry no finite error bound there); the
     reductions legitimately escape (growth over 1024 trips) *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " proven") true
        (proven_at q8_8 (Kernels.by_name Kernels.picachu name)))
    [ "relu"; "gelu"; "geglu"; "rope" ];
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " flagged") false
        (proven_at q8_8 (Kernels.by_name Kernels.picachu name)))
    [ "silu"; "swiglu"; "softmax"; "softmax_online"; "layernorm"; "rmsnorm" ]

let test_overflow_reported () =
  (* x * 100 on [-2, 2] has a finite value range far past Q8.8's max: the
     root cause is reported as an overflow, not as a missing bound *)
  let b = Builder.create () in
  let x = Builder.load b "x" in
  let big = Builder.mul b x (Builder.const b 100.0) in
  Builder.store b "y" big;
  let loop = Builder.finish b ~label:"big.1" ~trip_input:"n" () in
  let k =
    {
      Kernel.name = "big";
      klass = Kernel.EO;
      loops = [ loop ];
      inputs = [ "x" ];
      outputs = [ "y" ];
      scalar_inputs = [ "n" ];
    }
  in
  let fs = (Precision.analyze ~fmt:q8_8 k).Precision.findings in
  Alcotest.(check (list string)) "only prec-overflow" [ "prec-overflow" ]
    (codes fs);
  Alcotest.(check bool) "flagged" false (proven_at q8_8 k)

(* A divisor whose interval contains zero is a division finding, not just
   an unbounded quotient. *)
let test_zero_divisor_flagged () =
  let zero_divisor_nodes variant =
    List.concat_map
      (fun (k : Kernel.t) ->
        let c = Compiler.select_format k in
        List.filter_map
          (fun (f : Finding.t) ->
            if
              f.Finding.code = "prec-div-error"
              && String.starts_with ~prefix:"divisor interval" f.Finding.message
            then
              Some
                (Printf.sprintf "%s %%%d"
                   (Option.value ~default:"?" f.Finding.loc.Finding.loop)
                   (Option.value ~default:(-1) f.Finding.loc.Finding.node))
            else None)
          (Precision.analyze ~fmt:c.Precision.fmt k).Precision.findings)
      (library variant)
  in
  let baseline = zero_divisor_nodes Kernels.Baseline in
  List.iter
    (fun node ->
      if not (List.mem node baseline) then
        Alcotest.failf "baseline %s: no zero-divisor finding (got: %s)" node
          (String.concat ", " baseline))
    [
      "softmax.3 %4"; "softmax_online.2 %31"; "gelu.1 %39"; "geglu.1 %40";
      "swiglu.1 %31"; "silu.1 %30";
    ]

(* Containment: on the standard test vectors (inputs in [-2,2], RoPE angles
   pre-reduced, n=32) every interpreter output of every library kernel lies
   in the ideal value interval the analysis proves for its stream, in every
   catalogue format.  The interpreter runs in float64 on unquantized inputs;
   the proven interval already widens each input by one quantum, so only a
   relative slack for float64 rounding is allowed. *)
let test_interp_within_proven_intervals () =
  let n = 32 in
  List.iter
    (fun variant ->
      List.iter
        (fun (k : Kernel.t) ->
          let rng = Rng.create 42 in
          let range_of stream = if stream = "angle" then (-1.5, 1.5) else (-2.0, 2.0) in
          let env =
            {
              Interp.arrays =
                List.map
                  (fun s ->
                    let lo, hi = range_of s in
                    (s, Array.init n (fun _ -> Rng.uniform rng ~lo ~hi)))
                  k.Kernel.inputs;
              scalars =
                List.map
                  (fun s -> (s, if s = "n" then float_of_int n else 1.0))
                  k.Kernel.scalar_inputs;
            }
          in
          let outs = (Interp.run k env).Interp.out_arrays in
          List.iter
            (fun fmt ->
              let proven = (Precision.analyze ~fmt k).Precision.outputs in
              List.iter
                (fun (stream, a) ->
                  match List.find_opt (fun (s, _, _) -> s = stream) proven with
                  | None ->
                      Alcotest.failf "%s (%s): no proven interval for %s"
                        k.Kernel.name (variant_name variant) stream
                  | Some (_, (lo, hi), _) ->
                      Array.iter
                        (fun v ->
                          let tol = 1e-9 *. Float.max 1.0 (Float.abs v) in
                          if not (v >= lo -. tol && v <= hi +. tol) then
                            Alcotest.failf "%s (%s) %s: %s = %g outside [%g, %g]"
                              k.Kernel.name (variant_name variant) (Numfmt.name fmt)
                              stream v lo hi)
                        a)
                outs)
            Numfmt.catalogue)
        (library variant))
    [ Kernels.picachu; Kernels.picachu_nli; Kernels.Baseline ]

(* Golden over the precision analysis: for every Taylor/NLI roster kernel
   under every catalogue format, the proven bound, per-stream outputs (hex
   floats, so the last ulp is pinned) and findings.  Any drift in transfer
   rules, fixpoint order or noise-symbol allocation moves it. *)
let analysis_golden_pin = "6ea02c24c560641b01f3e2d03e228e87"

let test_analysis_golden () =
  let b = Buffer.create 65536 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun variant ->
      List.iter
        (fun (k : Kernel.t) ->
          List.iter
            (fun fmt ->
              let r = Precision.analyze ~fmt k in
              line "precision %s %s %s bound %h" (variant_name variant) k.Kernel.name
                (Numfmt.name fmt) r.Precision.bound;
              List.iter
                (fun (s, (lo, hi), e) -> line "  out %s [%h, %h] err %h" s lo hi e)
                r.Precision.outputs;
              List.iter
                (fun f -> line "  %s" (Finding.to_string f))
                (Finding.sort r.Precision.findings))
            Numfmt.catalogue)
        (library variant))
    [ Kernels.picachu; Kernels.picachu_nli ];
  Alcotest.(check string) "precision transcript digest" analysis_golden_pin
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* A reduction whose accumulator feeds [max acc 100]: while the sum stays
   below 100 the max is the constant (no noise symbol), about 50 rounds in
   it stops being dominated and allocates one, and the symbol of the load
   that follows it meets that value in the subtraction. *)
let dominated_max_text =
  {|kernel dommax RE
inputs x
outputs y
scalars n
loop dommax.1 reduction step=1 vw=1
  export s = %5
  %0 = const 0x0p+0
  %1 = phi %0 %11
  %2 = load x %1
  %3 = const 0x1.9p+6
  %4 = phi %0 %5
  %5 = add %4 %2
  %6 = max %5 %3
  %7 = load x %1
  %8 = sub %6 %7
  %9 = store y %1 %8
  %10 = const 0x1p+0
  %11 = add %1 %10
  %12 = input n
  %13 = cmp.lt %11 %12
  %14 = br %13
endloop
endkernel
|}

(* The same golden over transformed kernels: the Taylor/NLI library
   unrolled, vectorized and both, plus [dominated_max_text], in every
   catalogue format.  Unrolled and vectorized bodies sum three or more
   noise symbols, so the order the fixpoint allocates them in reaches the
   last ulp here where it does not on the plain kernels. *)
let transformed_golden_pin = "981be7344fb38a0d519bf9f910d550ed"

let test_transformed_golden () =
  let b = Buffer.create 262144 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let transforms =
    [
      ("unroll2", Transform.unroll_kernel 2);
      ("unroll4", Transform.unroll_kernel 4);
      ("vector4", Transform.vectorize_kernel 4);
      ("vector4-unroll2", fun k -> Transform.unroll_kernel 2 (Transform.vectorize_kernel 4 k));
    ]
  in
  let cases =
    List.concat_map
      (fun variant ->
        List.concat_map
          (fun (tag, f) ->
            List.map
              (fun (k : Kernel.t) -> (variant_name variant, tag, f k))
              (library variant))
          transforms)
      [ Kernels.picachu; Kernels.picachu_nli ]
    @ [ ("text", "plain", Kernel_text.of_string dominated_max_text) ]
  in
  List.iter
    (fun (vname, tag, (k : Kernel.t)) ->
      List.iter
        (fun fmt ->
          let r = Precision.analyze ~fmt k in
          line "precision %s %s/%s %s bound %h" vname k.Kernel.name tag
            (Numfmt.name fmt) r.Precision.bound;
          List.iter
            (fun (s, (lo, hi), e) -> line "  out %s [%h, %h] err %h" s lo hi e)
            r.Precision.outputs;
          List.iter
            (fun f -> line "  %s" (Finding.to_string f))
            (Finding.sort r.Precision.findings))
        Numfmt.catalogue)
    cases;
  Alcotest.(check string) "transformed precision transcript digest"
    transformed_golden_pin
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --------------------------------------------------------------- gate wiring *)

let test_gate_rejects_bad_kernel () =
  (* the env knob is on (test/main.ml); a kernel whose IR fails the linter
     must come back as Verification_failed, not Ok *)
  let k = Kernels.relu Kernels.picachu in
  let bad = { k with Kernel.outputs = [] } in
  match Compiler.compile_result (Compiler.picachu_options ()) bad with
  | Error (Picachu_error.Verification_failed { findings; _ }) ->
      Alcotest.(check bool) "findings nonempty" true (findings <> [])
  | Ok _ -> Alcotest.fail "gate accepted a kernel with an undeclared output store"
  | Error e -> Alcotest.failf "unexpected error class: %s" (Picachu_error.to_string e)

let suite =
  [
    ( "verify",
      [
        Alcotest.test_case "library structurally clean (golden 0)" `Slow
          test_library_clean;
        Alcotest.test_case "precision never errors on library" `Quick
          test_library_precision_no_errors;
        Alcotest.test_case "sweep architectures all validate" `Slow
          test_sweep_architectures_validate;
        Alcotest.test_case "verify knob preserves mappings" `Quick
          test_knob_preserves_mappings;
        Alcotest.test_case "unmutated mapping clean" `Quick test_mapping_unmutated_clean;
        Alcotest.test_case "mutant: slot collision" `Quick test_mutant_slot_collision;
        Alcotest.test_case "mutant: capability violation" `Quick test_mutant_capability;
        Alcotest.test_case "mutant: memory port violation" `Quick test_mutant_mem_port;
        Alcotest.test_case "mutant: timing violation" `Quick test_mutant_timing;
        Alcotest.test_case "mutant: dishonest routed_hops" `Quick
          test_mutant_hops_mismatch;
        Alcotest.test_case "mutant: dishonest makespan" `Quick
          test_mutant_makespan_mismatch;
        Alcotest.test_case "mutant: II out of range" `Quick test_mutant_ii_range;
        Alcotest.test_case "unmutated DFG clean" `Quick test_dfg_unmutated_clean;
        Alcotest.test_case "mutant: edge distance" `Quick test_dfg_mutant_edge_distance;
        Alcotest.test_case "mutant: edge endpoint" `Quick test_dfg_mutant_edge_endpoint;
        Alcotest.test_case "mutant: back edge into non-phi" `Quick
          test_dfg_mutant_back_edge_target;
        Alcotest.test_case "mutant: forward cycle" `Quick test_dfg_mutant_forward_cycle;
        Alcotest.test_case "mutant: origin coverage" `Quick
          test_dfg_mutant_origin_coverage;
        Alcotest.test_case "mutant: SSA forward reference" `Quick
          test_lint_mutant_forward_ref;
        Alcotest.test_case "mutant: arity" `Quick test_lint_mutant_arity;
        Alcotest.test_case "mutant: branch count" `Quick test_lint_mutant_branch_count;
        Alcotest.test_case "mutant: undeclared input stream" `Quick
          test_lint_mutant_undeclared_stream;
        Alcotest.test_case "mutant: undeclared output store" `Quick
          test_lint_mutant_undeclared_output;
        Alcotest.test_case "dead definition is advisory" `Quick
          test_lint_dead_def_warning;
        Alcotest.test_case "unroll leaves no dead constants" `Quick
          test_unroll_no_dead_consts;
        Alcotest.test_case "finding sort deterministic" `Quick
          test_finding_sort_deterministic;
        Alcotest.test_case "range verdicts on library" `Quick test_q8_8_verdicts;
        Alcotest.test_case "range flags overflow" `Quick test_overflow_reported;
        Alcotest.test_case "zero divisors flagged" `Quick test_zero_divisor_flagged;
        Alcotest.test_case "interp outputs within proven intervals" `Quick
          test_interp_within_proven_intervals;
        Alcotest.test_case "precision golden" `Quick test_analysis_golden;
        Alcotest.test_case "precision golden transformed" `Quick
          test_transformed_golden;
        Alcotest.test_case "verify gate rejects bad kernel" `Quick
          test_gate_rejects_bad_kernel;
      ] );
  ]
