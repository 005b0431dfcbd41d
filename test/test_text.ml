(* Tests for the textual kernel format: roundtrips over the whole library
   (including unrolled/vectorized forms and randomly generated kernels),
   hand-written sources, and parse-error reporting. *)
open Picachu_ir

let qtest = QCheck_alcotest.to_alcotest

let kernels_equal (a : Kernel.t) (b : Kernel.t) =
  a.Kernel.name = b.Kernel.name
  && a.Kernel.klass = b.Kernel.klass
  && a.Kernel.inputs = b.Kernel.inputs
  && a.Kernel.outputs = b.Kernel.outputs
  && a.Kernel.scalar_inputs = b.Kernel.scalar_inputs
  && List.length a.Kernel.loops = List.length b.Kernel.loops
  && List.for_all2
       (fun (la : Kernel.loop) (lb : Kernel.loop) ->
         la.Kernel.label = lb.Kernel.label
         && la.Kernel.reduction = lb.Kernel.reduction
         && la.Kernel.step = lb.Kernel.step
         && la.Kernel.vector_width = lb.Kernel.vector_width
         && la.Kernel.pre = lb.Kernel.pre
         && la.Kernel.exports = lb.Kernel.exports
         && la.Kernel.body = lb.Kernel.body)
       a.Kernel.loops b.Kernel.loops

let test_roundtrip_library () =
  List.iter
    (fun variant ->
      List.iter
        (fun k ->
          let text = Kernel_text.to_string k in
          let back = Kernel_text.of_string text in
          Alcotest.(check bool) (k.Kernel.name ^ " roundtrips") true (kernels_equal k back))
        (Kernels.all variant @ Kernels.extras variant))
    [ Kernels.picachu; Kernels.Baseline ]

let test_roundtrip_transformed () =
  let k = Transform.unroll_kernel 4 (Kernels.layernorm Kernels.picachu) in
  let back = Kernel_text.of_string (Kernel_text.to_string k) in
  Alcotest.(check bool) "unrolled roundtrips" true (kernels_equal k back);
  let kv = Transform.vectorize_kernel 4 (Kernels.relu Kernels.picachu) in
  let back = Kernel_text.of_string (Kernel_text.to_string kv) in
  Alcotest.(check bool) "vectorized roundtrips" true (kernels_equal kv back)

let test_handwritten_source () =
  let src =
    {|
# doubled input, hand-written
kernel double EO
inputs x
outputs y
scalars n
loop double.1 step=1 vw=1
  %0 = const 0x0p+0
  %1 = phi %0 %6
  %2 = load x %1
  %3 = const 0x1p+1
  %4 = mul %2 %3
  %5 = store y %1 %4
  %6 = add %1 %zz
  %7 = input n
  %8 = cmp.lt %6 %7
  %9 = br %8
endloop
endkernel
|}
  in
  (* the %zz above is deliberately malformed to check error reporting *)
  Alcotest.(check bool) "malformed ref rejected" true
    (try
       ignore (Kernel_text.of_string src);
       false
     with Kernel_text.Parse_error _ -> true)

let test_handwritten_valid () =
  let src =
    {|
kernel double EO
inputs x
outputs y
scalars n
loop double.1 step=1 vw=1
  %0 = const 0x0p+0
  %1 = phi %0 %7
  %2 = load x %1
  %3 = const 0x1p+1
  %4 = mul %2 %3
  %5 = store y %1 %4
  %6 = const 0x1p+0
  %7 = add %1 %6
  %8 = input n
  %9 = cmp.lt %7 %8
  %10 = br %9
endloop
endkernel
|}
  in
  let k = Kernel_text.of_string src in
  let res =
    Interp.run k
      {
        Interp.arrays = [ ("x", [| 1.0; 2.5; -3.0 |]) ];
        scalars = [ ("n", 3.0) ];
      }
  in
  let y = List.assoc "y" res.Interp.out_arrays in
  Alcotest.(check bool) "parsed kernel computes" true (y = [| 2.0; 5.0; -6.0 |])

let test_pre_expressions_roundtrip () =
  (* layernorm's glue exercises nested Sbin and Sisqrt *)
  let k = Kernels.layernorm Kernels.picachu in
  let back = Kernel_text.of_string (Kernel_text.to_string k) in
  let pre_of (kk : Kernel.t) = (List.nth kk.Kernel.loops 1).Kernel.pre in
  Alcotest.(check bool) "glue preserved" true (pre_of k = pre_of back)

let test_parse_errors () =
  let cases =
    [
      ("", "missing header");
      ("kernel a EO\n", "missing endkernel");
      ("kernel a EO\nloop l step=1 vw=1\nendkernel\n", "unterminated or invalid");
      ("garbage\nendkernel\n", "top-level garbage");
    ]
  in
  List.iter
    (fun (src, what) ->
      Alcotest.(check bool) what true
        (try
           ignore (Kernel_text.of_string src);
           false
         with Kernel_text.Parse_error _ -> true))
    cases

let test_line_numbers_in_errors () =
  let src = "kernel a EO\nloop l step=1 vw=1\n  %0 = frobnicate\nendloop\nendkernel\n" in
  (try ignore (Kernel_text.of_string src) with
  | Kernel_text.Parse_error msg ->
      Alcotest.(check bool) "mentions line 3" true
        (String.length msg >= 6 && String.sub msg 0 6 = "line 3"))

(* [src] with the first occurrence of [a] replaced by [b] (the edit a
   `sed s/a/b/` makes on these one-occurrence sources) *)
let replace_first a b src =
  let la = String.length a and ls = String.length src in
  let rec at i =
    if i + la > ls then Alcotest.failf "%S not in source" a
    else if String.sub src i la = a then i
    else at (i + 1)
  in
  let i = at 0 in
  String.sub src 0 i ^ b ^ String.sub src (i + la) (ls - i - la)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Edits of dumped library kernels that parse but must not validate, each
   with the text its error must name.  Reading the induction variable as
   data is what unrolling miscompiles (every copy would see copy 0's
   index); a non-finite constant would reach the fabric as NaN/inf. *)
let test_validation_rejects_edits () =
  let relu = Kernel_text.to_string (Kernels.relu Kernels.picachu) in
  let layernorm = Kernel_text.to_string (Kernels.layernorm Kernels.picachu) in
  let cases =
    [
      ( "iv read as data",
        replace_first "%4 = select %3 %2 %0" "%4 = mul %2 %1" relu,
        "instruction %4 (mul) reads the induction variable %1" );
      ( "nan constant",
        replace_first "const 0x0p+0" "const nan" relu,
        "instruction %0 (const): non-finite constant nan" );
      ( "infinite constant",
        replace_first "const 0x0p+0" "const infinity" relu,
        "instruction %0 (const): non-finite constant inf" );
      ( "iv exported",
        replace_first "export sum = %4" "export sum = %1" layernorm,
        "export sum reads the induction variable %1" );
      ( "nan glue constant",
        replace_first "0x1.4f8b588e368f1p-17" "nan" layernorm,
        "pre inv_sigma: non-finite constant" );
    ]
  in
  List.iter
    (fun (what, src, expected) ->
      match Kernel_text.of_string src with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Kernel_text.Parse_error msg ->
          if not (contains msg expected) then
            Alcotest.failf "%s: error %S does not name %S" what msg expected)
    cases;
  (* the unedited sources still parse *)
  ignore (Kernel_text.of_string relu);
  ignore (Kernel_text.of_string layernorm)

(* random-kernel roundtrip: reuse the fuzz generator *)
let prop_roundtrip_random =
  QCheck.Test.make ~name:"text roundtrip on random kernels" ~count:80 QCheck.small_nat
    (fun seed ->
      let k = Test_fuzz.random_kernel seed in
      kernels_equal k (Kernel_text.of_string (Kernel_text.to_string k)))

let suite =
  [
    ( "kernel-text",
      [
        Alcotest.test_case "library roundtrip" `Quick test_roundtrip_library;
        Alcotest.test_case "transformed roundtrip" `Quick test_roundtrip_transformed;
        Alcotest.test_case "malformed source" `Quick test_handwritten_source;
        Alcotest.test_case "hand-written kernel runs" `Quick test_handwritten_valid;
        Alcotest.test_case "glue expressions" `Quick test_pre_expressions_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "validation rejects edits" `Quick
          test_validation_rejects_edits;
        Alcotest.test_case "error line numbers" `Quick test_line_numbers_in_errors;
        qtest prop_roundtrip_random;
      ] );
  ]
