(* Tests for the kernel IR: opcode algebra, builder, kernel validation, the
   reference interpreter (against closed-form math), and the loop
   transformations (semantic equivalence under unrolling/vectorization). *)
open Picachu_ir

let check_close eps = Alcotest.(check (float eps))
let qtest = QCheck_alcotest.to_alcotest

let run_kernel k ~arrays ~scalars =
  Interp.run k { Interp.arrays; scalars }

let input_n n = [ ("n", float_of_int n) ]

let test_xs n = Array.init n (fun i -> (float_of_int i /. 3.0) -. 2.2)

let max_delta a b =
  let d = ref 0.0 in
  Array.iteri (fun i v -> d := Float.max !d (Float.abs (v -. b.(i)))) a;
  !d

(* -------------------------------------------------------------------- Op *)

let test_op_latency () =
  Alcotest.(check int) "div pipelined" 4 (Op.latency (Op.Bin Op.Div));
  Alcotest.(check int) "add" 1 (Op.latency (Op.Bin Op.Add));
  Alcotest.(check int) "fused" 1 (Op.latency (Op.Fused Op.Mul_add))

let test_op_classification () =
  Alcotest.(check bool) "load is memory" true (Op.is_memory (Op.Load "x"));
  Alcotest.(check bool) "const is not compute" false (Op.is_compute (Op.Const 1.0));
  Alcotest.(check bool) "phi is control" true (Op.is_control Op.Phi);
  Alcotest.(check bool) "div not vectorizable" false (Op.is_vectorizable (Op.Bin Op.Div));
  Alcotest.(check bool) "mul vectorizable" true (Op.is_vectorizable (Op.Bin Op.Mul))

let test_fused_members () =
  Alcotest.(check int) "mul+add+add members" 3
    (List.length (Op.fused_members Op.Mul_add_add));
  Alcotest.(check string) "name" "cmp+br" (Op.fused_name Op.Cmp_br)

(* ------------------------------------------------------------ Validation *)

let test_all_kernels_validate () =
  List.iter
    (fun variant ->
      List.iter
        (fun k ->
          match Kernel.validate k with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" k.Kernel.name e)
        (Kernels.all variant))
    [ Kernels.picachu; Kernels.Baseline ]

let test_validate_rejects_bad_ids () =
  let bad =
    {
      Kernel.name = "bad";
      klass = Kernel.EO;
      loops =
        [
          {
            Kernel.label = "bad.1";
            pre = [];
            body = [ Instr.make ~id:5 ~op:(Op.Const 1.0) ~args:[] () ];
            reduction = false;
            exports = [];
            step = 1;
            vector_width = 1;
          };
        ];
      inputs = [];
      outputs = [];
      scalar_inputs = [];
    }
  in
  match Kernel.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dense-id violation not caught"

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_validate_rejects_undeclared_stream () =
  let b = Builder.create () in
  let x = Builder.load b "mystery" in
  Builder.store b "y" x;
  let loop = Builder.finish b ~label:"l" ~trip_input:"n" () in
  let k =
    {
      Kernel.name = "k";
      klass = Kernel.EO;
      loops = [ loop ];
      inputs = [ "x" ];
      outputs = [ "y" ];
      scalar_inputs = [ "n" ];
    }
  in
  match Kernel.validate k with
  | Error e ->
      Alcotest.(check bool) "mentions stream" true (string_contains e "mystery")
  | Ok () -> Alcotest.fail "undeclared load not caught"

(* relu with its compare+select written as the fused DFG opcode: only the
   fusion pass makes fused nodes, so kernel IR carrying one is malformed *)
let relu_with_fused_select () =
  let k = Kernels.relu Kernels.picachu in
  let fuse (i : Instr.t) =
    if i.Instr.op = Op.Select then { i with Instr.op = Op.Fused Op.Cmp_sel } else i
  in
  {
    k with
    Kernel.loops =
      List.map
        (fun (l : Kernel.loop) -> { l with Kernel.body = List.map fuse l.Kernel.body })
        k.Kernel.loops;
  }

let test_validate_rejects_fused () =
  let k = relu_with_fused_select () in
  (match Kernel.validate k with
  | Error e ->
      Alcotest.(check string) "names the fused instruction"
        "relu.1: instruction %4 (cmp+select): fused opcodes exist only in DFGs" e
  | Ok () -> Alcotest.fail "fused opcode in kernel IR accepted");
  (* the interpreter reports it as an invalid kernel, not a runtime fault *)
  (match run_kernel k ~arrays:[ ("x", [| 1.0 |]) ] ~scalars:(input_n 1) with
  | _ -> Alcotest.fail "interpreter ran a fused opcode"
  | exception Interp.Runtime_error e ->
      Alcotest.(check bool) "invalid kernel" true (string_contains e "invalid kernel"));
  (* the text form prints the mnemonic and refuses to read it back *)
  let text = Kernel_text.to_string k in
  Alcotest.(check bool) "prints the mnemonic" true
    (string_contains text "%4 = cmp+select %3 %2 %0");
  match Kernel_text.of_string text with
  | _ -> Alcotest.fail "fused opcode parsed"
  | exception Kernel_text.Parse_error e ->
      Alcotest.(check bool) "unknown opcode" true
        (string_contains e "unknown opcode cmp+select")

(* -------------------------------------------------------- Opcode semantics *)

(* bit-equal, with every NaN equal to every NaN (so -0.0 <> 0.0) *)
let same_float a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The one definition of operand-only opcodes, which both the reference
   interpreter and the cycle-timed executor run, pinned at its edges. *)
let test_eval_op_edges () =
  let preds =
    Op.[ (Lt, "lt", 0.0); (Le, "le", 0.0); (Gt, "gt", 0.0); (Ge, "ge", 0.0);
         (Eq, "eq", 0.0); (Ne, "ne", 1.0) ]
  in
  let cases =
    [
      ("shexp 1 by 2.5 (rounds to 3)", Op.Shift_exp, [ 1.0; 2.5 ], 8.0);
      ("shexp 3 by -2", Op.Shift_exp, [ 3.0; -2.0 ], 3.0 /. 4.0);
      ("shexp 1 by -2.5 (rounds to -3)", Op.Shift_exp, [ 1.0; -2.5 ], 1.0 /. 8.0);
      ("shexp 1 by nan", Op.Shift_exp, [ 1.0; Float.nan ], Float.nan);
      ("shexp 1 by 1e30 saturates", Op.Shift_exp, [ 1.0; 1e30 ], Float.infinity);
      ("shexp 1 by -1e30 underflows", Op.Shift_exp, [ 1.0; -1e30 ], 0.0);
      ("fp2fx.i -1.25", Op.Fp2fx_int, [ -1.25 ], -2.0);
      ("fp2fx.f -1.25", Op.Fp2fx_frac, [ -1.25 ], 0.75);
      ("fp2fx.i 1e30", Op.Fp2fx_int, [ 1e30 ], 1e30);
      ("fp2fx.f 1e30", Op.Fp2fx_frac, [ 1e30 ], 0.0);
      ("fp2fx.i nan", Op.Fp2fx_int, [ Float.nan ], Float.nan);
      ("fp2fx.f nan", Op.Fp2fx_frac, [ Float.nan ], Float.nan);
      ("select on -0.0 takes the false arm", Op.Select, [ -0.0; 1.0; 2.0 ], 2.0);
      ("select on nan takes the true arm", Op.Select, [ Float.nan; 1.0; 2.0 ], 1.0);
      ("floor -0.5", Op.Un Op.Floor, [ -0.5 ], -1.0);
      ("floor -0.0 keeps the sign", Op.Un Op.Floor, [ -0.0 ], -0.0);
      ("div 1 by +0", Op.Bin Op.Div, [ 1.0; 0.0 ], Float.infinity);
      ("div 1 by -0", Op.Bin Op.Div, [ 1.0; -0.0 ], Float.neg_infinity);
      ("div 0 by 0", Op.Bin Op.Div, [ 0.0; 0.0 ], Float.nan);
      (* the table clamps to its end words, Phi(+-6) in FP16 *)
      ("lut phi above its range", Op.Lut "phi", [ 10.0 ], 1.0);
      ("lut phi below its range", Op.Lut "phi", [ -10.0 ], 0.0);
      ("br passes its condition", Op.Br, [ 0.5 ], 0.5);
    ]
    @ List.concat_map
        (fun (c, p, expected) ->
          [
            ("cmp." ^ p ^ " 1 nan", Op.Cmp c, [ 1.0; Float.nan ], expected);
            ("cmp." ^ p ^ " nan 1", Op.Cmp c, [ Float.nan; 1.0 ], expected);
            ("cmp." ^ p ^ " nan nan", Op.Cmp c, [ Float.nan; Float.nan ], expected);
          ])
        preds
  in
  List.iter
    (fun (what, op, args, expected) ->
      let got = Interp.eval_op op (List.nth args) in
      if not (same_float got expected) then
        Alcotest.failf "%s: got %h, expected %h" what got expected)
    cases;
  List.iter
    (fun op ->
      match Interp.eval_op op (fun _ -> 0.0) with
      | _ -> Alcotest.failf "%s evaluated from operands alone" (Op.name op)
      | exception Invalid_argument _ -> ())
    [ Op.Const 1.0; Op.Input "n"; Op.Phi; Op.Load "x"; Op.Store "y"; Op.Fused Op.Mul_add ]

(* ------------------------------------------------------------ Interp/math *)

let test_relu_interp () =
  let n = 12 in
  let xs = test_xs n in
  let res = run_kernel (Kernels.relu Kernels.picachu) ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  let y = List.assoc "y" res.Interp.out_arrays in
  Array.iteri
    (fun i v -> check_close 1e-12 "relu" (Float.max 0.0 xs.(i)) v)
    y

let test_softmax_interp () =
  let n = 16 in
  let xs = test_xs n in
  let res = run_kernel (Kernels.softmax Kernels.picachu) ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  let y = List.assoc "y" res.Interp.out_arrays in
  let m = Array.fold_left Float.max neg_infinity xs in
  let es = Array.map (fun x -> exp (x -. m)) xs in
  let s = Array.fold_left ( +. ) 0.0 es in
  let expect = Array.map (fun e -> e /. s) es in
  Alcotest.(check bool) "softmax within taylor tolerance" true
    (max_delta y expect < 1e-5);
  check_close 1e-5 "sums to one" 1.0 (Array.fold_left ( +. ) 0.0 y)

let test_softmax_baseline_variant_interp () =
  (* the floor-based split must compute the same values *)
  let n = 16 in
  let xs = test_xs n in
  let p = run_kernel (Kernels.softmax Kernels.picachu) ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  let b = run_kernel (Kernels.softmax Kernels.Baseline) ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  let yp = List.assoc "y" p.Interp.out_arrays and yb = List.assoc "y" b.Interp.out_arrays in
  Alcotest.(check bool) "variants agree" true (max_delta yp yb < 1e-6)

let test_gelu_lut_interp () =
  let n = 10 in
  let xs = test_xs n in
  let res = run_kernel (Kernels.gelu Kernels.picachu) ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  let y = List.assoc "y" res.Interp.out_arrays in
  Array.iteri
    (fun i v ->
      let expect = xs.(i) *. Picachu_numerics.Lut.gauss_cdf_exact xs.(i) in
      Alcotest.(check bool) "gelu lut tolerance" true (Float.abs (v -. expect) < 2e-3))
    y

let test_gelu_tanh_interp () =
  let n = 10 in
  let xs = test_xs n in
  let res = run_kernel (Kernels.gelu Kernels.Baseline) ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  let y = List.assoc "y" res.Interp.out_arrays in
  Array.iteri
    (fun i v ->
      let expect = Picachu_numerics.Approx.gelu_tanh_exact xs.(i) in
      Alcotest.(check bool) "gelu tanh tolerance" true (Float.abs (v -. expect) < 1e-3))
    y

let test_silu_swiglu_interp () =
  let n = 12 in
  let a = test_xs n in
  let g = Array.init n (fun i -> 1.0 -. (float_of_int i /. 10.0)) in
  let silu = run_kernel (Kernels.silu Kernels.picachu) ~arrays:[ ("x", a) ] ~scalars:(input_n n) in
  let ys = List.assoc "y" silu.Interp.out_arrays in
  Array.iteri
    (fun i v ->
      let expect = a.(i) /. (1.0 +. exp (-.a.(i))) in
      Alcotest.(check bool) "silu" true (Float.abs (v -. expect) < 1e-5))
    ys;
  let sw =
    run_kernel (Kernels.swiglu Kernels.picachu)
      ~arrays:[ ("a", a); ("b", g) ]
      ~scalars:(input_n n)
  in
  let yw = List.assoc "y" sw.Interp.out_arrays in
  Array.iteri
    (fun i v ->
      let expect = a.(i) /. (1.0 +. exp (-.a.(i))) *. g.(i) in
      Alcotest.(check bool) "swiglu" true (Float.abs (v -. expect) < 1e-5))
    yw

let test_layernorm_interp () =
  let n = 16 in
  let xs = test_xs n in
  let res = run_kernel (Kernels.layernorm Kernels.picachu) ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  let y = List.assoc "y" res.Interp.out_arrays in
  let mu = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var = Array.fold_left (fun a x -> a +. ((x -. mu) ** 2.0)) 0.0 xs /. float_of_int n in
  let expect = Array.map (fun x -> (x -. mu) /. sqrt (var +. 1e-5)) xs in
  Alcotest.(check bool) "layernorm" true (max_delta y expect < 1e-9)

let test_rmsnorm_interp () =
  let n = 16 in
  let xs = test_xs n in
  let res = run_kernel (Kernels.rmsnorm Kernels.picachu) ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  let y = List.assoc "y" res.Interp.out_arrays in
  let ms = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs /. float_of_int n in
  let expect = Array.map (fun x -> x /. sqrt (ms +. 1e-5)) xs in
  Alcotest.(check bool) "rmsnorm" true (max_delta y expect < 1e-9)

let test_rope_interp () =
  let n = 8 in
  let x1 = Array.init n (fun i -> float_of_int i /. 5.0) in
  let x2 = Array.init n (fun i -> 0.7 -. (float_of_int i /. 9.0)) in
  let angle = Array.init n (fun i -> (float_of_int i /. float_of_int n *. 2.8) -. 1.4) in
  let res =
    run_kernel (Kernels.rope Kernels.picachu)
      ~arrays:[ ("x1", x1); ("x2", x2); ("angle", angle) ]
      ~scalars:(input_n n)
  in
  let y1 = List.assoc "y1" res.Interp.out_arrays in
  let y2 = List.assoc "y2" res.Interp.out_arrays in
  Array.iteri
    (fun i _ ->
      let c = cos angle.(i) and s = sin angle.(i) in
      Alcotest.(check bool) "y1" true
        (Float.abs (y1.(i) -. ((x1.(i) *. c) -. (x2.(i) *. s))) < 1e-3);
      Alcotest.(check bool) "y2" true
        (Float.abs (y2.(i) -. ((x1.(i) *. s) +. (x2.(i) *. c))) < 1e-3))
    x1

let test_softmax_online_interp () =
  let n = 32 in
  let xs = Array.init n (fun i -> (float_of_int i /. 3.0) -. 5.0) in
  let res =
    run_kernel (Kernels.softmax_online Kernels.picachu) ~arrays:[ ("x", xs) ]
      ~scalars:(input_n n)
  in
  let y = List.assoc "y" res.Interp.out_arrays in
  let m = Array.fold_left Float.max neg_infinity xs in
  let es = Array.map (fun x -> exp (x -. m)) xs in
  let s = Array.fold_left ( +. ) 0.0 es in
  let expect = Array.map (fun e -> e /. s) es in
  Alcotest.(check bool) "online softmax matches exact" true (max_delta y expect < 1e-5);
  (* the exports are the true statistics *)
  check_close 1e-9 "running max export" m (List.assoc "m" res.Interp.out_scalars)

let test_softmax_online_agrees_with_three_loop () =
  let n = 24 in
  let xs = test_xs n in
  let a =
    run_kernel (Kernels.softmax Kernels.picachu) ~arrays:[ ("x", xs) ] ~scalars:(input_n n)
  in
  let b =
    run_kernel (Kernels.softmax_online Kernels.picachu) ~arrays:[ ("x", xs) ]
      ~scalars:(input_n n)
  in
  let ya = List.assoc "y" a.Interp.out_arrays and yb = List.assoc "y" b.Interp.out_arrays in
  Alcotest.(check bool) "forms agree" true (max_delta ya yb < 1e-6)

let test_interp_exports () =
  let n = 8 in
  let xs = test_xs n in
  let res = run_kernel (Kernels.softmax Kernels.picachu) ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  let m = List.assoc "m" res.Interp.out_scalars in
  check_close 1e-12 "max exported" (Array.fold_left Float.max neg_infinity xs) m

let test_interp_missing_stream () =
  Alcotest.check_raises "missing stream"
    (Interp.Runtime_error "relu.1: missing input stream x") (fun () ->
      ignore (run_kernel (Kernels.relu Kernels.picachu) ~arrays:[] ~scalars:(input_n 4)))

let test_interp_missing_scalar () =
  try
    ignore (run_kernel (Kernels.relu Kernels.picachu) ~arrays:[ ("x", test_xs 4) ] ~scalars:[]);
    Alcotest.fail "missing trip scalar not caught"
  with Interp.Runtime_error _ -> ()

let test_future_op_kernels () =
  (* the §3.2.2 claim: new operations come up from primitives with no
     architecture change — validate their mathematics and their mappings *)
  let n = 16 in
  let xs = Array.init n (fun i -> (float_of_int i *. 5.0) -. 40.0) in
  let sc = run_kernel (Kernels.softcap Kernels.picachu) ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  let y = List.assoc "y" sc.Interp.out_arrays in
  Array.iteri
    (fun i v ->
      let expect = 30.0 *. tanh (xs.(i) /. 30.0) in
      Alcotest.(check bool) "softcap" true (Float.abs (v -. expect) < 1e-3))
    y;
  let r2 = run_kernel (Kernels.relu_squared Kernels.picachu) ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  let y = List.assoc "y" r2.Interp.out_arrays in
  Array.iteri
    (fun i v ->
      let r = Float.max 0.0 xs.(i) in
      check_close 1e-9 "relu^2" (r *. r) v)
    y;
  List.iter
    (fun k ->
      match Kernel.validate k with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" k.Kernel.name e)
    (Kernels.extras Kernels.picachu @ Kernels.extras Kernels.Baseline)

let test_exp_kernel_orders () =
  let n = 8 in
  let xs = Array.init n (fun i -> (float_of_int i /. 2.0) -. 2.0) in
  List.iter
    (fun order ->
      let k = Kernels.exp_kernel ~order Kernels.picachu in
      let res = run_kernel k ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
      let y = List.assoc "y" res.Interp.out_arrays in
      let tolerance = match order with 2 -> 0.1 | 4 -> 3e-3 | _ -> 1e-4 in
      Array.iteri
        (fun i v ->
          Alcotest.(check bool)
            (Printf.sprintf "order %d" order)
            true
            (Float.abs (v -. exp xs.(i)) /. exp xs.(i) < tolerance))
        y)
    [ 2; 4; 6 ]

(* --------------------------------------------------------------- Builder *)

let test_builder_const_hash_consing () =
  let b = Builder.create () in
  let a = Builder.const b 1.5 and c = Builder.const b 1.5 in
  Alcotest.(check int) "same const shared" a c;
  let i1 = Builder.input b "n" and i2 = Builder.input b "n" in
  Alcotest.(check int) "same input shared" i1 i2

let test_builder_iv_single () =
  let b = Builder.create () in
  let i1 = Builder.iv b and i2 = Builder.iv b in
  Alcotest.(check int) "one induction variable" i1 i2

(* ------------------------------------------------------------- Transform *)

let interp_outputs k ~arrays ~scalars =
  let res = Interp.run k { Interp.arrays; scalars } in
  List.sort compare res.Interp.out_arrays

let test_unroll_equivalence_all_kernels () =
  let n = 16 in
  let arrays_for (k : Kernel.t) =
    List.map
      (fun name ->
        ( name,
          match name with
          | "angle" -> Array.init n (fun i -> (float_of_int i /. 16.0) -. 0.5)
          | _ -> Array.init n (fun i -> ((float_of_int (i * 7) /. 11.0) -. 3.0) /. 2.0) ))
      k.Kernel.inputs
  in
  List.iter
    (fun uf ->
      List.iter
        (fun (k : Kernel.t) ->
          let arrays = arrays_for k in
          let base = interp_outputs k ~arrays ~scalars:(input_n n) in
          let unrolled = Transform.unroll_kernel uf k in
          (match Kernel.validate unrolled with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s uf=%d invalid: %s" k.Kernel.name uf e);
          let got = interp_outputs unrolled ~arrays ~scalars:(input_n n) in
          List.iter2
            (fun (n1, a) (n2, b) ->
              Alcotest.(check string) "stream name" n1 n2;
              Alcotest.(check bool)
                (Printf.sprintf "%s uf=%d equivalent" k.Kernel.name uf)
                true
                (max_delta a b < 1e-9))
            base got)
        (Kernels.all Kernels.picachu))
    [ 2; 4 ]

let test_unroll_updates_step () =
  let k = Transform.unroll_kernel 4 (Kernels.relu Kernels.picachu) in
  List.iter (fun l -> Alcotest.(check int) "step" 4 l.Kernel.step) k.Kernel.loops

let test_unroll_identity () =
  let k = Kernels.relu Kernels.picachu in
  let k1 = Transform.unroll_kernel 1 k in
  Alcotest.(check int) "uf=1 unchanged" (Kernel.kernel_instr_count k)
    (Kernel.kernel_instr_count k1)

let test_unroll_twice_rejected () =
  let l = List.hd (Kernels.relu Kernels.picachu).Kernel.loops in
  let l2 = Transform.unroll 2 l in
  Alcotest.check_raises "already unrolled"
    (Invalid_argument "Transform.unroll: loop already unrolled") (fun () ->
      ignore (Transform.unroll 2 l2))

let test_vectorize_splits_divs () =
  let k = Kernels.softmax Kernels.picachu in
  let count_divs (k : Kernel.t) =
    List.fold_left
      (fun acc l ->
        acc
        + List.length
            (List.filter (fun (i : Instr.t) -> i.Instr.op = Op.Bin Op.Div) l.Kernel.body))
      0 k.Kernel.loops
  in
  let before = count_divs k in
  let kv = Transform.vectorize_kernel 4 k in
  (match Kernel.validate kv with
  | Ok () -> ()
  | Error e -> Alcotest.failf "vectorized invalid: %s" e);
  Alcotest.(check int) "divs split per lane" (before * 4) (count_divs kv);
  List.iter (fun l -> Alcotest.(check int) "vw" 4 l.Kernel.vector_width) kv.Kernel.loops

let test_vectorize_preserves_semantics () =
  let n = 16 in
  let xs = test_xs n in
  let k = Kernels.softmax Kernels.picachu in
  let base = interp_outputs k ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  let kv = Transform.vectorize_kernel 4 k in
  let got = interp_outputs kv ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
  List.iter2
    (fun (_, a) (_, b) ->
      Alcotest.(check bool) "vectorized equivalent" true (max_delta a b < 1e-12))
    base got

let prop_unroll_random_inputs =
  QCheck.Test.make ~name:"unroll-2 layernorm equivalence on random inputs" ~count:50
    (QCheck.list_of_size (QCheck.Gen.return 12) (QCheck.float_range (-10.0) 10.0))
    (fun xs ->
      let xs = Array.of_list xs in
      let n = Array.length xs in
      let k = Kernels.layernorm Kernels.picachu in
      let base = interp_outputs k ~arrays:[ ("x", xs) ] ~scalars:(input_n n) in
      let got =
        interp_outputs (Transform.unroll_kernel 2 k) ~arrays:[ ("x", xs) ]
          ~scalars:(input_n n)
      in
      List.for_all2 (fun (_, a) (_, b) -> max_delta a b < 1e-9) base got)

let suite =
  [
    ( "op",
      [
        Alcotest.test_case "latency" `Quick test_op_latency;
        Alcotest.test_case "classification" `Quick test_op_classification;
        Alcotest.test_case "fused members" `Quick test_fused_members;
      ] );
    ( "kernel-validation",
      [
        Alcotest.test_case "library validates" `Quick test_all_kernels_validate;
        Alcotest.test_case "rejects bad ids" `Quick test_validate_rejects_bad_ids;
        Alcotest.test_case "rejects undeclared stream" `Quick
          test_validate_rejects_undeclared_stream;
        Alcotest.test_case "rejects fused opcodes" `Quick test_validate_rejects_fused;
      ] );
    ( "opcode-semantics",
      [ Alcotest.test_case "eval_op at the edges" `Quick test_eval_op_edges ] );
    ( "interp",
      [
        Alcotest.test_case "relu" `Quick test_relu_interp;
        Alcotest.test_case "softmax" `Quick test_softmax_interp;
        Alcotest.test_case "softmax variants agree" `Quick
          test_softmax_baseline_variant_interp;
        Alcotest.test_case "gelu (lut)" `Quick test_gelu_lut_interp;
        Alcotest.test_case "gelu (tanh)" `Quick test_gelu_tanh_interp;
        Alcotest.test_case "silu/swiglu" `Quick test_silu_swiglu_interp;
        Alcotest.test_case "layernorm" `Quick test_layernorm_interp;
        Alcotest.test_case "rmsnorm" `Quick test_rmsnorm_interp;
        Alcotest.test_case "rope" `Quick test_rope_interp;
        Alcotest.test_case "softmax online" `Quick test_softmax_online_interp;
        Alcotest.test_case "softmax forms agree" `Quick
          test_softmax_online_agrees_with_three_loop;
        Alcotest.test_case "exports" `Quick test_interp_exports;
        Alcotest.test_case "missing stream" `Quick test_interp_missing_stream;
        Alcotest.test_case "missing scalar" `Quick test_interp_missing_scalar;
        Alcotest.test_case "exp kernel orders" `Quick test_exp_kernel_orders;
        Alcotest.test_case "future-op kernels" `Quick test_future_op_kernels;
      ] );
    ( "builder",
      [
        Alcotest.test_case "const hash-consing" `Quick test_builder_const_hash_consing;
        Alcotest.test_case "single induction var" `Quick test_builder_iv_single;
      ] );
    ( "transform",
      [
        Alcotest.test_case "unroll equivalence (all kernels)" `Quick
          test_unroll_equivalence_all_kernels;
        Alcotest.test_case "unroll updates step" `Quick test_unroll_updates_step;
        Alcotest.test_case "unroll identity" `Quick test_unroll_identity;
        Alcotest.test_case "double unroll rejected" `Quick test_unroll_twice_rejected;
        Alcotest.test_case "vectorize splits divs" `Quick test_vectorize_splits_divs;
        Alcotest.test_case "vectorize preserves semantics" `Quick
          test_vectorize_preserves_semantics;
        qtest prop_unroll_random_inputs;
      ] );
  ]
