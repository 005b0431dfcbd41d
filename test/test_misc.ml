(* Edge-case coverage: the report renderer, interpreter corner semantics,
   numerics boundary behaviour, and the supplementary model rows. *)
open Picachu
module Kernels = Picachu_ir.Kernels
module Kernel = Picachu_ir.Kernel
module Interp = Picachu_ir.Interp
module Nm = Picachu_numerics

(* ---------------------------------------------------------------- report *)

let with_captured_stdout f =
  (* Report prints to stdout; run under a temp redirect *)
  let tmp = Filename.temp_file "picachu" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved;
    Unix.close fd
  in
  (try f () with e -> restore (); raise e);
  restore ();
  let ic = open_in tmp in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  s

let test_report_table_alignment () =
  let out =
    with_captured_stdout (fun () ->
        Report.table ~header:[ "a"; "bbbb" ] [ [ "xx"; "y" ]; [ "1"; "22222" ] ])
  in
  let lines = String.split_on_char '\n' out |> List.filter (fun s -> s <> "") in
  Alcotest.(check int) "header + rule + rows" 4 (List.length lines);
  (* all lines align to the same width *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "fixed width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_report_rejects_ragged () =
  Alcotest.check_raises "ragged row" (Invalid_argument "Report.table: ragged row")
    (fun () -> Report.table ~header:[ "a"; "b" ] [ [ "only-one" ] ])

let test_report_formatters () =
  Alcotest.(check string) "ratio" "1.86x" (Report.fmt_x 1.8600001);
  Alcotest.(check string) "percent" "46.3%" (Report.fmt_pct 0.46349);
  Alcotest.(check string) "delta zero" "0.00" (Report.fmt_delta 0.001);
  Alcotest.(check string) "delta positive" "+0.21" (Report.fmt_delta 0.21);
  Alcotest.(check string) "delta negative" "-0.21" (Report.fmt_delta (-0.21))

(* ---------------------------------------------------------- interp edges *)

let test_interp_zero_trip () =
  (* n = 0: no iterations, outputs empty, exports default to 0 *)
  let k = Kernels.rmsnorm Kernels.picachu in
  let res =
    Interp.run k { Interp.arrays = [ ("x", [||]) ]; scalars = [ ("n", 0.0) ] }
  in
  List.iter
    (fun (_, a) -> Alcotest.(check int) "empty stream" 0 (Array.length a))
    res.Interp.out_arrays

let test_interp_single_element () =
  let k = Kernels.softmax Kernels.picachu in
  let res =
    Interp.run k { Interp.arrays = [ ("x", [| 3.7 |]) ]; scalars = [ ("n", 1.0) ] }
  in
  let y = List.assoc "y" res.Interp.out_arrays in
  Alcotest.(check (float 1e-9)) "softmax of singleton is 1" 1.0 y.(0)

let test_unroll_non_divisible_trip () =
  (* 10 elements under UF=4: the interpreter must not read out of bounds *)
  let k = Picachu_ir.Transform.unroll_kernel 4 (Kernels.relu Kernels.picachu) in
  Alcotest.(check bool) "out-of-bounds load detected" true
    (try
       ignore
         (Interp.run k
            { Interp.arrays = [ ("x", Array.make 10 1.0) ]; scalars = [ ("n", 10.0) ] });
       false
     with Interp.Runtime_error _ -> true)

(* -------------------------------------------------------- numerics edges *)

let test_fp16_negative_zero () =
  let z = Nm.Minifloat.(round fp16 (-0.0)) in
  Alcotest.(check bool) "-0.0 keeps its sign" true (z = 0.0 && 1.0 /. z = neg_infinity)

let test_taylor_exp_extremes () =
  Alcotest.(check (float 0.0)) "deep underflow" 0.0 (Nm.Taylor.exp (-1000.0));
  Alcotest.(check bool) "overflow to inf" true (Nm.Taylor.exp 1000.0 = infinity)

let test_int_ops_exp_bounds () =
  Alcotest.(check (float 0.0)) "flush below -87" 0.0 (Nm.Int_ops.exp (-100.0));
  Alcotest.(check bool) "saturate above 88" true (Nm.Int_ops.exp 100.0 = infinity)

let test_lut_single_sided () =
  let l = Nm.Lut.create ~entries:2 ~lo:0.0 ~hi:1.0 (fun x -> x) in
  Alcotest.(check (float 1e-6)) "two-entry interpolation" 0.5 (Nm.Lut.eval l 0.5)

(* ---------------------------------------------------------- supp models *)

let test_supp_models_accuracy () =
  List.iter
    (fun (name, fp, dfp, dint) ->
      Alcotest.(check bool) (name ^ " fp16 sane") true (fp > 1.0 && fp < 100.0);
      Alcotest.(check bool) (name ^ " ours-fp within 2%") true
        (Float.abs dfp /. fp < 0.02);
      Alcotest.(check bool) (name ^ " ours-int within 2%") true
        (Float.abs dint /. fp < 0.02))
    (Experiments.supp_models ())

let suite =
  [
    ( "report",
      [
        Alcotest.test_case "table alignment" `Quick test_report_table_alignment;
        Alcotest.test_case "ragged rejected" `Quick test_report_rejects_ragged;
        Alcotest.test_case "formatters" `Quick test_report_formatters;
      ] );
    ( "interp-edges",
      [
        Alcotest.test_case "zero trips" `Quick test_interp_zero_trip;
        Alcotest.test_case "single element" `Quick test_interp_single_element;
        Alcotest.test_case "non-divisible unroll" `Quick test_unroll_non_divisible_trip;
      ] );
    ( "numerics-edges",
      [
        Alcotest.test_case "fp16 negative zero" `Quick test_fp16_negative_zero;
        Alcotest.test_case "taylor exp extremes" `Quick test_taylor_exp_extremes;
        Alcotest.test_case "int exp bounds" `Quick test_int_ops_exp_bounds;
        Alcotest.test_case "two-entry lut" `Quick test_lut_single_sided;
      ] );
    ( "supp-models",
      [ Alcotest.test_case "gqa/mqa accuracy" `Slow test_supp_models_accuracy ] );
  ]
