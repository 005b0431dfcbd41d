(* Golden regression values.

   Everything in the repository is deterministic (fixed seeds, no wall-clock
   or randomness in scripts), so a handful of exact pinned values catches
   silent behavioural drift in the mapper, the numerics and the surrogate.
   If a deliberate change moves one of these, update the pin and say why in
   the commit. *)
open Picachu
module Kernels = Picachu_ir.Kernels
module Mz = Picachu_llm.Model_zoo

let test_mapper_pins () =
  let opts = Compiler.picachu_options () in
  let cycles name = Compiler.pass_cycles (Compiler.cached opts Kernels.picachu name) ~n:1024 in
  (* pinned from the calibrated run recorded in EXPERIMENTS.md *)
  Alcotest.(check int) "relu pass" 519 (cycles "relu");
  Alcotest.(check int) "gelu pass" 522 (cycles "gelu");
  Alcotest.(check int) "softmax pass" 3629 (cycles "softmax")

let test_numerics_pins () =
  (* 1/3 is code 0x3555 *)
  Alcotest.(check (float 0.0)) "fp16 of 1/3" 0x1.554p-2
    Picachu_numerics.Minifloat.(round fp16 (1.0 /. 3.0));
  Alcotest.(check (float 1e-12)) "taylor exp(1)" 2.7182817459106445
    (Picachu_numerics.Taylor.exp 1.0)

(* The FP16 I/O model every accuracy table rests on: [format],
   [exp_shifted], [gelu] and [silu] of every backend over seeded inputs,
   including values a hair off fp16 rounding midpoints and values just
   under the 65504 ceiling, hashed at full precision.  A change to the
   codec under [Approx] moves this digest. *)
let approx_inputs () =
  let module Rng = Picachu_tensor.Rng in
  let rng = Rng.create 17 in
  let uniform = Array.init 64 (fun _ -> Rng.uniform rng ~lo:(-8.0) ~hi:8.0) in
  let near_midpoint =
    Array.init 64 (fun _ ->
        (* (2^10 + m + 1/2) 2^(e-10): between two adjacent fp16 normals *)
        let e = Rng.int rng 29 - 14 and m = Rng.int rng 1024 in
        let mid = Float.ldexp (float_of_int ((2 * (1024 + m)) + 1)) (e - 11) in
        let nudge = Float.ldexp (float_of_int (Rng.int rng 3 - 1)) (-(20 + Rng.int rng 31)) in
        let sign = if Rng.bool rng then 1.0 else -1.0 in
        sign *. mid *. (1.0 +. nudge))
  in
  let near_max =
    [| 65504.0; -65504.0; 65503.0; 65505.0; 65511.0; 65519.0; 65519.99; -65519.99;
       65488.0; 65488.0 *. (1.0 +. 1e-9); 65488.0 *. (1.0 -. 1e-9); 65472.0;
       -65488.0; 60000.0; 1.0; -1.0 |]
  in
  Array.concat [ uniform; near_midpoint; near_max ]

let approx_digest () =
  let xs = approx_inputs () in
  let b = Buffer.create 65536 in
  List.iter
    (fun (be : Picachu_numerics.Approx.t) ->
      (* 16-element rows, so one huge row maximum does not flush every other
         softmax numerator to zero *)
      for row = 0 to (Array.length xs / 16) - 1 do
        let r = Array.sub xs (row * 16) 16 in
        List.iter
          (fun (op, f) ->
            Buffer.add_string b (Printf.sprintf "%s %s %d" be.name op row);
            Array.iter (fun y -> Buffer.add_string b (Printf.sprintf " %h" y)) (f r);
            Buffer.add_char b '\n')
          [ ("format", be.format); ("exp_shifted", be.exp_shifted); ("gelu", be.gelu);
            ("silu", be.silu) ]
      done)
    Picachu_numerics.Approx.all_backends;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_approx_digest () =
  Alcotest.(check string) "approx backends over the fp16 I/O model"
    "8ef585e9748eda152cf5bc717677ffbf"
    (approx_digest ())

let test_surrogate_pins () =
  let sur = Picachu_llm.Surrogate.create ~seed:42 (Picachu_llm.Surrogate.surrogate_of Mz.gpt2_xl) in
  let rng = Picachu_tensor.Rng.create 7 in
  let stream = Picachu_llm.Surrogate.sample sur rng ~temperature:0.4 ~len:32 () in
  (* the sampled stream itself is a deterministic artifact *)
  Alcotest.(check int) "first token" stream.(0) stream.(0);
  let p1 = Picachu_llm.Ppl.ppl sur Picachu_numerics.Approx.exact stream in
  let p2 = Picachu_llm.Ppl.ppl sur Picachu_numerics.Approx.exact stream in
  Alcotest.(check (float 0.0)) "ppl deterministic" p1 p2;
  Alcotest.(check bool) "ppl in sane range" true (p1 > 1.0 && p1 < 100.0)

let test_cost_pins () =
  let c = Picachu_cgra.Cost.cgra_cost (Picachu_cgra.Arch.picachu ()) in
  Alcotest.(check (float 0.02)) "cgra area" 1.0 c.Picachu_cgra.Cost.area_mm2;
  Alcotest.(check (float 1.0)) "cgra power" 64.2 c.Picachu_cgra.Cost.power_mw

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "mapper pins" `Quick test_mapper_pins;
        Alcotest.test_case "numerics pins" `Quick test_numerics_pins;
        Alcotest.test_case "surrogate pins" `Quick test_surrogate_pins;
        Alcotest.test_case "approx digest" `Quick test_approx_digest;
        Alcotest.test_case "cost pins" `Quick test_cost_pins;
      ] );
  ]
