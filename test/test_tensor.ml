(* Unit and property tests for the tensor substrate: Rng, Tensor, Stats. *)
open Picachu_tensor

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------- Rng *)

let test_rng_deterministic () =
  let a = Rng.create 11 and b = Rng.create 11 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_float_range () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniform_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.uniform r ~lo:(-3.0) ~hi:5.0 in
    Alcotest.(check bool) "bounds" true (v >= -3.0 && v < 5.0)
  done

let test_rng_normal_moments () =
  let r = Rng.create 17 in
  let n = 50_000 in
  let samples = Array.init n (fun _ -> Rng.normal r ~mu:2.0 ~sigma:3.0) in
  let mean = Array.fold_left ( +. ) 0.0 samples /. float_of_int n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 samples /. float_of_int n
  in
  check_close 0.1 "mean" 2.0 mean;
  check_close 0.3 "variance" 9.0 var

let test_rng_split_diverges () =
  let a = Rng.create 4 in
  let b = Rng.split a in
  let xa = Rng.int64 a and xb = Rng.int64 b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_rng_copy () =
  let a = Rng.create 8 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_shuffle_permutation () =
  let r = Rng.create 21 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_laplace_median () =
  let r = Rng.create 33 in
  let n = 20_000 in
  let below = ref 0 in
  for _ = 1 to n do
    if Rng.laplace r ~mu:1.0 ~b:2.0 < 1.0 then incr below
  done;
  check_close 0.03 "median at mu" 0.5 (float_of_int !below /. float_of_int n)

let test_rng_int_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "n = 0" (Invalid_argument "Rng.int: n must be > 0")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "n = -1" (Invalid_argument "Rng.int: n must be > 0")
    (fun () -> ignore (Rng.int r (-1)));
  (* the failed draws must not have advanced the stream *)
  Alcotest.(check int) "stream unchanged by failed draws"
    (Rng.int (Rng.create 1) 7) (Rng.int r 7)

(* splitmix64's finalizer is a bijection fixing 0, so the draw whose
   pre-mix state is exactly 0 outputs raw 0 — i.e. [float] = 0.0.  Seeding
   with -2*golden_gamma (mod 2^64) puts the *second* draw there. *)
let laplace_corner_seed = -4354685564936845354

let test_rng_laplace_corner () =
  (* premise: the seed really forces the corner *)
  let r = Rng.create laplace_corner_seed in
  ignore (Rng.float r);
  check_float "second float draw is exactly 0.0" 0.0 (Rng.float r);
  (* at [float] = 0.0 the inverse-CDF argument is log 0. unclamped; the
     draw must now be finite (deep in the left tail), not -inf *)
  let r = Rng.create laplace_corner_seed in
  ignore (Rng.float r);
  let v = Rng.laplace r ~mu:0.0 ~b:1.0 in
  Alcotest.(check bool) "laplace finite at the forced corner" true
    (Float.is_finite v);
  Alcotest.(check bool) "corner draw lands in the deep left tail" true
    (v < -100.0)

let prop_distributions_finite =
  QCheck.Test.make ~name:"laplace/normal/uniform draws always finite"
    ~count:500 QCheck.int (fun seed ->
      let r = Rng.create seed in
      let ok v = Float.is_finite v in
      List.for_all Fun.id
        (List.init 50 (fun _ ->
             ok (Rng.laplace r ~mu:0.0 ~b:2.0)
             && ok (Rng.normal r ~mu:0.0 ~sigma:3.0)
             && ok (Rng.uniform r ~lo:(-5.0) ~hi:5.0))))

(* ---------------------------------------------------------------- Tensor *)

let test_create_shape () =
  let t = Tensor.create [ 3; 4 ] in
  Alcotest.(check (list int)) "shape" [ 3; 4 ] (Tensor.shape t);
  Alcotest.(check int) "numel" 12 (Tensor.numel t);
  check_float "zeroed" 0.0 (Tensor.get t 7)

let test_create_invalid () =
  Alcotest.check_raises "empty shape" (Invalid_argument "Tensor: empty shape") (fun () ->
      ignore (Tensor.create []));
  Alcotest.check_raises "negative dim" (Invalid_argument "Tensor: negative dimension")
    (fun () -> ignore (Tensor.create [ 2; -1 ]))

let test_of_array_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Tensor.of_array: shape/data mismatch") (fun () ->
      ignore (Tensor.of_array [ 2; 2 ] [| 1.0; 2.0 |]))

let test_get2_set2 () =
  let t = Tensor.create [ 2; 3 ] in
  Tensor.set2 t 1 2 5.0;
  check_float "get2" 5.0 (Tensor.get2 t 1 2);
  check_float "flat layout" 5.0 (Tensor.get t 5)

let test_matmul_known () =
  let a = Tensor.of_array [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = Tensor.of_array [ 3; 2 ] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  let c = Tensor.matmul a b in
  Alcotest.(check (list int)) "shape" [ 2; 2 ] (Tensor.shape c);
  check_float "c00" 58.0 (Tensor.get2 c 0 0);
  check_float "c01" 64.0 (Tensor.get2 c 0 1);
  check_float "c10" 139.0 (Tensor.get2 c 1 0);
  check_float "c11" 154.0 (Tensor.get2 c 1 1)

let test_matmul_dim_mismatch () =
  let a = Tensor.create [ 2; 3 ] and b = Tensor.create [ 4; 2 ] in
  Alcotest.check_raises "inner mismatch"
    (Invalid_argument "Tensor.matmul: inner dimension mismatch") (fun () ->
      ignore (Tensor.matmul a b))

let test_transpose_known () =
  let a = Tensor.of_array [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let t = Tensor.transpose a in
  Alcotest.(check (list int)) "shape" [ 3; 2 ] (Tensor.shape t);
  check_float "t01" 4.0 (Tensor.get2 t 0 1);
  check_float "t20" 3.0 (Tensor.get2 t 2 0)

let test_row_ops () =
  let a = Tensor.of_array [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let r = Tensor.row a 1 in
  check_float "row read" 5.0 (Tensor.get r 1);
  Tensor.set_row a 0 (Tensor.of_array [ 3 ] [| 9.; 8.; 7. |]);
  check_float "row written" 8.0 (Tensor.get2 a 0 1)

let test_concat_cols () =
  let a = Tensor.of_array [ 2; 2 ] [| 1.; 2.; 3.; 4. |] in
  let b = Tensor.of_array [ 2; 1 ] [| 5.; 6. |] in
  let c = Tensor.concat_cols a b in
  Alcotest.(check (list int)) "shape" [ 2; 3 ] (Tensor.shape c);
  check_float "left kept" 3.0 (Tensor.get2 c 1 0);
  check_float "right appended" 6.0 (Tensor.get2 c 1 2)

let test_reductions () =
  let t = Tensor.of_array [ 4 ] [| 1.0; -2.0; 3.5; 0.5 |] in
  check_float "sum" 3.0 (Tensor.sum t);
  check_float "max" 3.5 (Tensor.max_value t);
  check_float "min" (-2.0) (Tensor.min_value t);
  check_float "mean" 0.75 (Tensor.mean t);
  Alcotest.(check int) "argmax" 2 (Tensor.argmax t)

let test_variance () =
  let t = Tensor.of_array [ 4 ] [| 2.0; 4.0; 4.0; 6.0 |] in
  check_float "population variance" 2.0 (Tensor.variance t)

let test_reshape () =
  let t = Tensor.of_array [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let r = Tensor.reshape t [ 3; 2 ] in
  check_float "storage shared" 4.0 (Tensor.get2 r 1 1);
  Alcotest.check_raises "size mismatch" (Invalid_argument "Tensor.reshape: size mismatch")
    (fun () -> ignore (Tensor.reshape t [ 4; 2 ]))

let test_equal_eps () =
  let a = Tensor.of_array [ 2 ] [| 1.0; 2.0 |] in
  let b = Tensor.of_array [ 2 ] [| 1.0; 2.0005 |] in
  Alcotest.(check bool) "within eps" true (Tensor.equal ~eps:1e-3 a b);
  Alcotest.(check bool) "outside eps" false (Tensor.equal ~eps:1e-6 a b);
  Alcotest.(check bool) "shape differs" false
    (Tensor.equal a (Tensor.of_array [ 1; 2 ] [| 1.0; 2.0 |]))

let tensor_gen =
  QCheck.Gen.(
    sized_size (int_range 1 20) (fun n ->
        map
          (fun l -> Tensor.of_array [ n ] (Array.of_list l))
          (list_repeat n (float_range (-100.0) 100.0))))

let arb_tensor = QCheck.make ~print:(Fmt.to_to_string Tensor.pp) tensor_gen

let prop_scale_linearity =
  QCheck.Test.make ~name:"scale distributes over add" ~count:200
    (QCheck.pair arb_tensor (QCheck.float_range (-10.0) 10.0))
    (fun (t, s) ->
      let lhs = Tensor.scale s (Tensor.add t t) in
      let rhs = Tensor.add (Tensor.scale s t) (Tensor.scale s t) in
      Tensor.equal ~eps:1e-6 lhs rhs)

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:100
    (QCheck.pair (QCheck.int_range 1 8) (QCheck.int_range 1 8))
    (fun (m, n) ->
      let r = Rng.create (m + (100 * n)) in
      let t = Tensor.randn r [ m; n ] ~mu:0.0 ~sigma:1.0 in
      Tensor.equal t (Tensor.transpose (Tensor.transpose t)))

let prop_matmul_identity =
  QCheck.Test.make ~name:"matmul by identity" ~count:100 (QCheck.int_range 1 8)
    (fun n ->
      let r = Rng.create n in
      let a = Tensor.randn r [ n; n ] ~mu:0.0 ~sigma:1.0 in
      let id = Tensor.init [ n; n ] (fun k -> if k / n = k mod n then 1.0 else 0.0) in
      Tensor.equal ~eps:1e-9 a (Tensor.matmul a id))

let prop_dot_symmetric =
  QCheck.Test.make ~name:"dot is symmetric" ~count:200 (QCheck.pair arb_tensor arb_tensor)
    (fun (a, b) ->
      QCheck.assume (Tensor.numel a = Tensor.numel b);
      Float.abs (Tensor.dot a b -. Tensor.dot b a) < 1e-9)

(* ----------------------------------------------------------------- Stats *)

let test_compare_exact () =
  let r =
    Stats.compare_fn ~n:100 ~lo:(-1.0) ~hi:1.0 ~reference:sin ~candidate:sin ()
  in
  check_float "zero error" 0.0 r.Stats.max_abs

let test_compare_known_offset () =
  let r =
    Stats.compare_fn ~n:16 ~lo:0.0 ~hi:1.0 ~reference:(fun x -> x)
      ~candidate:(fun x -> x +. 0.5)
      ()
  in
  check_float "max abs" 0.5 r.Stats.max_abs;
  check_float "mean abs" 0.5 r.Stats.mean_abs;
  check_float "rmse" 0.5 r.Stats.rmse

let test_compare_tensors_shape () =
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Stats.compare_tensors: shape mismatch") (fun () ->
      ignore
        (Stats.compare_tensors ~reference:(Tensor.create [ 2 ])
           ~candidate:(Tensor.create [ 3 ])))

let test_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: empty") (fun () ->
      ignore (Stats.geomean []));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive element") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_percentile () =
  let a = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "median" 2.5 (Stats.percentile a 50.0);
  check_float "min" 1.0 (Stats.percentile a 0.0);
  check_float "max" 4.0 (Stats.percentile a 100.0);
  (* interpolated positions: p sits fractionally between two sorted ranks *)
  check_float "p25" 1.75 (Stats.percentile a 25.0);
  check_float "p95" 3.85 (Stats.percentile a 95.0);
  let b = Array.init 100 (fun i -> float_of_int (99 - i)) in
  check_float "p99 of 0..99" 98.01 (Stats.percentile b 99.0);
  check_float "p1 of 0..99" 0.99 (Stats.percentile b 1.0);
  (* Float.compare gives a total order: NaNs sort below every real value
     instead of scrambling the sort like polymorphic compare could *)
  let withnan = [| 2.0; Float.nan; 1.0 |] in
  Alcotest.(check bool) "nan sorts first" true
    (Float.is_nan (Stats.percentile withnan 0.0));
  check_float "reals keep order above nan" 2.0 (Stats.percentile withnan 100.0)

let test_percentile_endpoints_small () =
  (* endpoint percentiles on the smallest arrays: the rank interpolation
     must degenerate cleanly (n-1 = 0 and 1) *)
  let one = [| 42.0 |] in
  check_float "p0 singleton" 42.0 (Stats.percentile one 0.0);
  check_float "p100 singleton" 42.0 (Stats.percentile one 100.0);
  check_float "p50 singleton" 42.0 (Stats.percentile one 50.0);
  let two = [| 7.0; 3.0 |] in
  check_float "p0 pair" 3.0 (Stats.percentile two 0.0);
  check_float "p100 pair" 7.0 (Stats.percentile two 100.0);
  check_float "p50 pair" 5.0 (Stats.percentile two 50.0)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    (QCheck.pair arb_tensor (QCheck.pair (QCheck.float_range 0.0 100.0) (QCheck.float_range 0.0 100.0)))
    (fun (t, (p1, p2)) ->
      let a = Tensor.data t in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile a lo <= Stats.percentile a hi +. 1e-9)

let prop_percentile_sorted_prefix =
  (* the incremental reader the cluster's hedge relies on: insert each value
     after its ties into a sorted buffer with spare capacity (NaN-filled, so
     reading past the prefix would show), and at every prefix the sorted
     read must be Stats.percentile of the raw prefix to the last bit.
     Values come from a small grid with 0.0 so ties are forced *)
  QCheck.Test.make ~name:"percentile_sorted on a sorted prefix = percentile" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 6))
    (fun cells ->
      let xs = Array.of_list (List.map (fun c -> float_of_int c *. 0.375) cells) in
      let buf = Array.make (Array.length xs + 3) Float.nan in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let ok = ref true in
      Array.iteri
        (fun k x ->
          let i = ref k in
          while !i > 0 && Float.compare buf.(!i - 1) x > 0 do
            buf.(!i) <- buf.(!i - 1);
            decr i
          done;
          buf.(!i) <- x;
          let raw = Array.sub xs 0 (k + 1) in
          List.iter
            (fun p ->
              if not (same (Stats.percentile_sorted buf ~len:(k + 1) p) (Stats.percentile raw p))
              then ok := false)
            [ 0.0; 50.0; 95.0; 99.0; 100.0 ])
        xs;
      !ok)

let test_percentile_sorted_len () =
  let a = [| 1.0; 2.0; 3.0 |] in
  check_float "len 2 reads the prefix" 2.0 (Stats.percentile_sorted a ~len:2 100.0);
  let len_outside =
    Invalid_argument "Stats.percentile_sorted: len outside [1, length]"
  in
  Alcotest.check_raises "len 0" len_outside (fun () ->
      ignore (Stats.percentile_sorted a ~len:0 50.0));
  Alcotest.check_raises "len past the array" len_outside (fun () ->
      ignore (Stats.percentile_sorted a ~len:4 50.0));
  Alcotest.check_raises "p nan" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stats.percentile_sorted a ~len:3 Float.nan))

let suite =
  [
    ( "rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
        Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "laplace median" `Quick test_rng_laplace_median;
        Alcotest.test_case "int invalid n" `Quick test_rng_int_invalid;
        Alcotest.test_case "laplace forced corner" `Quick test_rng_laplace_corner;
        qtest prop_distributions_finite;
      ] );
    ( "tensor",
      [
        Alcotest.test_case "create/shape" `Quick test_create_shape;
        Alcotest.test_case "create invalid" `Quick test_create_invalid;
        Alcotest.test_case "of_array mismatch" `Quick test_of_array_mismatch;
        Alcotest.test_case "get2/set2" `Quick test_get2_set2;
        Alcotest.test_case "matmul known" `Quick test_matmul_known;
        Alcotest.test_case "matmul mismatch" `Quick test_matmul_dim_mismatch;
        Alcotest.test_case "transpose known" `Quick test_transpose_known;
        Alcotest.test_case "row ops" `Quick test_row_ops;
        Alcotest.test_case "concat_cols" `Quick test_concat_cols;
        Alcotest.test_case "reductions" `Quick test_reductions;
        Alcotest.test_case "variance" `Quick test_variance;
        Alcotest.test_case "reshape" `Quick test_reshape;
        Alcotest.test_case "equal eps" `Quick test_equal_eps;
        qtest prop_scale_linearity;
        qtest prop_transpose_involution;
        qtest prop_matmul_identity;
        qtest prop_dot_symmetric;
      ] );
    ( "stats",
      [
        Alcotest.test_case "compare exact" `Quick test_compare_exact;
        Alcotest.test_case "compare offset" `Quick test_compare_known_offset;
        Alcotest.test_case "compare shape" `Quick test_compare_tensors_shape;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "percentile" `Quick test_percentile;
        Alcotest.test_case "percentile endpoints small" `Quick
          test_percentile_endpoints_small;
        qtest prop_percentile_monotone;
        qtest prop_percentile_sorted_prefix;
        Alcotest.test_case "percentile_sorted len" `Quick test_percentile_sorted_len;
      ] );
  ]
