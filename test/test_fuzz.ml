(* Differential fuzzing of the whole compilation stack.

   Random element-wise kernels are generated through the public Builder API
   (random expression DAGs over loads, constants, scalar inputs and the
   operator macro-expansions, with optional reduction accumulators), then:

   - the kernel must validate,
   - unrolling by 2/4 must preserve interpreter semantics exactly,
   - fusion + modulo scheduling must yield a mapping that passes the
     structural validity checker, and
   - the cycle-accurate executor must reproduce the interpreter bit-for-bit
     with no timing violation, at every unroll factor.

   This hunts exactly the class of bugs unit tests missed historically:
   mis-patched phi back edges after unrolling, fusion groups that steal an
   observed value, schedules that violate a routed dependence. *)

open Picachu_ir
module Dfg = Picachu_dfg.Dfg
module Fuse = Picachu_dfg.Fuse
module Arch = Picachu_cgra.Arch
module Mapper = Picachu_cgra.Mapper
module Executor = Picachu_cgra.Executor
module Rng = Picachu_tensor.Rng
open Picachu

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------ random kernel generator *)

(* Build a random element-wise kernel with [n_roots] stored outputs and an
   optional reduction accumulator, from a seed. All operations keep values
   in a tame numeric range so float comparisons stay exact across
   evaluation orders (the executor evaluates in the same order as the
   interpreter, so even without that, equality must hold bit-for-bit). *)
let random_kernel seed =
  let rng = Rng.create seed in
  let b = Builder.create ~use_fp2fx:(Rng.bool rng) () in
  let x = Builder.load b "x" in
  let y = Builder.load b "y" in
  let pool = ref [ x; y ] in
  let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
  let n_ops = 3 + Rng.int rng 10 in
  for _ = 1 to n_ops do
    let v =
      match Rng.int rng 9 with
      | 0 -> Builder.add b (pick ()) (pick ())
      | 1 -> Builder.sub b (pick ()) (pick ())
      | 2 -> Builder.mul b (pick ()) (pick ())
      | 3 -> Builder.fmax b (pick ()) (pick ())
      | 4 -> Builder.fmin b (pick ()) (pick ())
      | 5 ->
          let c = Builder.cmp b Op.Gt (pick ()) (Builder.const b 0.25) in
          Builder.select b c (pick ()) (pick ())
      | 6 -> Builder.mul b (pick ()) (Builder.const b (Rng.uniform rng ~lo:(-1.0) ~hi:1.0))
      | 7 -> Builder.un b Op.Neg (pick ())
      | _ -> Builder.un b Op.Abs (pick ())
    in
    pool := v :: !pool
  done;
  (* avoid value explosions before the transcendental *)
  let squash v = Builder.fmax b (Builder.fmin b v (Builder.const b 4.0)) (Builder.const b (-4.0)) in
  let pool_final =
    if Rng.bool rng then Builder.exp_taylor b ~order:(2 + Rng.int rng 5) (squash (pick ()))
    else pick ()
  in
  Builder.store b "out" pool_final;
  let exports, reduction =
    if Rng.bool rng then begin
      let _, next = Builder.reduce_simple b Op.Add ~init:(Builder.const b 0.0) (squash (pick ())) in
      ([ ("acc", next) ], true)
    end
    else ([], false)
  in
  let loop = Builder.finish b ~label:"fuzz.1" ~reduction ~exports ~trip_input:"n" () in
  {
    Kernel.name = Printf.sprintf "fuzz-%d" seed;
    klass = (if reduction then Kernel.RE else Kernel.EO);
    loops = [ loop ];
    inputs = [ "x"; "y" ];
    outputs = [ "out" ];
    scalar_inputs = [ "n" ];
  }

let fuzz_env seed n =
  let rng = Rng.create (seed * 7919) in
  {
    Interp.arrays =
      [
        ("x", Array.init n (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0));
        ("y", Array.init n (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0));
      ];
    scalars = [ ("n", float_of_int n) ];
  }

let outputs_sorted (r : Interp.result) = List.sort compare r.Interp.out_arrays

let identical a b =
  List.length a = List.length b
  && List.for_all2
       (fun (na, xs) (nb, ys) -> na = nb && Array.for_all2 (fun u v -> u = v || (Float.is_nan u && Float.is_nan v)) xs ys)
       a b

(* ----------------------------------------------------------------- props *)

let prop_random_kernels_validate =
  QCheck.Test.make ~name:"random kernels validate" ~count:120 QCheck.small_nat
    (fun seed ->
      match Kernel.validate (random_kernel seed) with Ok () -> true | Error _ -> false)

let prop_unroll_preserves_semantics =
  QCheck.Test.make ~name:"unroll preserves semantics on random kernels" ~count:80
    (QCheck.pair QCheck.small_nat (QCheck.oneofl [ 2; 4 ]))
    (fun (seed, uf) ->
      let k = random_kernel seed in
      let n = 16 in
      let env = fuzz_env seed n in
      let base = outputs_sorted (Interp.run k env) in
      let unrolled = Transform.unroll_kernel uf k in
      (match Kernel.validate unrolled with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "invalid after unroll: %s" e);
      identical base (outputs_sorted (Interp.run unrolled env)))

(* structural mapping validity on random fused kernels (mirrors the checker
   in test_cgra but over a much wider graph population) *)
let mapping_valid arch (g : Dfg.t) (m : Mapper.mapping) =
  let lat u = Arch.latency arch g.Dfg.nodes.(u).Dfg.op in
  let ok = ref true in
  let slots = Hashtbl.create 64 in
  Array.iteri
    (fun u (p : Mapper.placement) ->
      if p.Mapper.time < 0 then ok := false;
      if not (Arch.supports arch ~tile:p.Mapper.tile g.Dfg.nodes.(u).Dfg.op) then
        ok := false;
      let key = (p.Mapper.tile, p.Mapper.time mod m.Mapper.ii) in
      if Hashtbl.mem slots key then ok := false else Hashtbl.add slots key u)
    m.Mapper.schedule;
  List.iter
    (fun (e : Dfg.edge) ->
      let ps = m.Mapper.schedule.(e.Dfg.src) and pd = m.Mapper.schedule.(e.Dfg.dst) in
      if e.Dfg.src <> e.Dfg.dst then begin
        if
          pd.Mapper.time
          < ps.Mapper.time + lat e.Dfg.src
            + Arch.distance arch ps.Mapper.tile pd.Mapper.tile
            - (e.Dfg.distance * m.Mapper.ii)
        then ok := false
      end
      else if lat e.Dfg.src > e.Dfg.distance * m.Mapper.ii then ok := false)
    g.Dfg.edges;
  !ok

let prop_mapper_valid_on_random_kernels =
  QCheck.Test.make ~name:"mapper validity on random fused kernels" ~count:60
    (QCheck.pair QCheck.small_nat QCheck.bool)
    (fun (seed, picachu_arch) ->
      let k = random_kernel seed in
      let arch = if picachu_arch then Arch.picachu () else Arch.universal () in
      List.for_all
        (fun loop ->
          let g = Fuse.fuse (Dfg.of_loop loop) in
          mapping_valid arch g (Mapper.map_dfg arch g))
        k.Kernel.loops)

let prop_executor_bit_identical =
  QCheck.Test.make ~name:"cycle-accurate executor == interpreter (random kernels)"
    ~count:60
    (QCheck.pair QCheck.small_nat (QCheck.oneofl [ 1; 2 ]))
    (fun (seed, uf) ->
      let k = random_kernel seed in
      let opts = Compiler.picachu_options () in
      let compiled = Compiler.compile_with_unroll opts uf k in
      let env = fuzz_env seed 16 in
      let hw = Hw_sim.run compiled env in
      let reference = Interp.run compiled.Compiler.kernel env in
      identical
        (outputs_sorted hw.Hw_sim.result)
        (outputs_sorted reference))

(* The independent verifier as oracle: whatever the generator produces must
   lint clean of Errors, and whatever the compiler emits for it must pass
   the DFG invariant checker and the schedule translation validator.  This
   replaces the hand-rolled [mapping_valid] predicate above with the full
   production checker (both stay: one mirrors the mapper's own invariants,
   the other is the shipping oracle). *)
let prop_verifier_oracle =
  QCheck.Test.make ~name:"verifier oracle on random kernels" ~count:60
    QCheck.small_nat (fun seed ->
      let module Verify = Picachu_verify.Verify in
      let module Finding = Picachu_verify.Finding in
      let k = random_kernel seed in
      (match Finding.errors (Verify.lint_kernel k) with
      | [] -> ()
      | f :: _ -> QCheck.Test.fail_reportf "lint: %s" (Finding.to_string f));
      let opts = Compiler.picachu_options () in
      match Compiler.compile_result opts k with
      | Error e -> QCheck.Test.fail_reportf "compile: %s" (Picachu_error.to_string e)
      | Ok c ->
          List.iter
            (fun (cl : Compiler.compiled_loop) ->
              match
                Finding.errors
                  (Verify.check_loop ~arch:opts.Compiler.arch
                     ~source:cl.Compiler.source cl.Compiler.dfg cl.Compiler.mapping)
              with
              | [] -> ()
              | f :: _ -> QCheck.Test.fail_reportf "verify: %s" (Finding.to_string f))
            c.Compiler.loops;
          (* format selection (the precision analysis in every catalogue
             format) must terminate and never crash, whatever the generator
             dreamt up *)
          ignore (Picachu_verify.Precision.select_format k);
          true)

let prop_fusion_structural_on_random =
  QCheck.Test.make ~name:"fusion preserves member accounting (random kernels)"
    ~count:100 QCheck.small_nat (fun seed ->
      let k = random_kernel seed in
      List.for_all
        (fun loop ->
          let g = Dfg.of_loop loop in
          let f = Fuse.fuse g in
          let members =
            Array.fold_left (fun acc (n : Dfg.node) -> acc + List.length n.Dfg.members) 0
              f.Dfg.nodes
          in
          members = Dfg.node_count g
          && Picachu_dfg.Analysis.rec_mii f <= Picachu_dfg.Analysis.rec_mii g)
        k.Kernel.loops)

let suite =
  [
    ( "fuzz",
      [
        qtest prop_random_kernels_validate;
        qtest prop_unroll_preserves_semantics;
        qtest prop_mapper_valid_on_random_kernels;
        qtest prop_verifier_oracle;
        qtest prop_executor_bit_identical;
        qtest prop_fusion_structural_on_random;
      ] );
  ]
