(* Quickstart: compile a nonlinear kernel onto the PICACHU CGRA and check
   it against the float64 reference.

   Run with: dune exec examples/quickstart.exe *)

module Kernels = Picachu_ir.Kernels
module Kernel = Picachu_ir.Kernel
module Kernel_text = Picachu_ir.Kernel_text
module Interp = Picachu_ir.Interp
module Arch = Picachu_cgra.Arch
module Mapper = Picachu_cgra.Mapper
open Picachu

let () =
  (* 1. Pick a kernel from the Table 1 library: softmax, in its PICACHU
     form (FP2FX special unit + Taylor expansion). *)
  let kernel = Kernels.softmax Kernels.picachu in
  Printf.printf "Kernel IR:\n%s\n" (Kernel_text.to_string kernel);

  (* 2. Compile it: vectorize/unroll -> DFG -> fuse -> modulo-schedule onto
     the heterogeneous 4x4 CGRA. The unroll factor is auto-tuned. *)
  let opts = Compiler.picachu_options () in
  let compiled = Compiler.compile opts kernel in
  Printf.printf "Compiled with unroll factor %d onto %s:\n" compiled.Compiler.unroll
    compiled.Compiler.arch_name;
  List.iter
    (fun (cl : Compiler.compiled_loop) ->
      Printf.printf "  %-12s II=%d makespan=%d tiles-used=%d/16\n"
        cl.Compiler.source.Kernel.label cl.Compiler.mapping.Mapper.ii
        cl.Compiler.mapping.Mapper.makespan
        (let tiles = Hashtbl.create 16 in
         Array.iter
           (fun (p : Mapper.placement) -> Hashtbl.replace tiles p.Mapper.tile ())
           cl.Compiler.mapping.Mapper.schedule;
         Hashtbl.length tiles))
    compiled.Compiler.loops;
  let n = 1024 in
  Printf.printf "One pass over %d elements: %d cycles (%.2f cycles/element)\n" n
    (Compiler.pass_cycles compiled ~n)
    (float_of_int (Compiler.pass_cycles compiled ~n) /. float_of_int n);

  (* 3. Execute the kernel in the reference interpreter and compare with
     exact softmax. *)
  let xs = Array.init 16 (fun i -> (float_of_int i /. 3.0) -. 2.5) in
  let res =
    Interp.run kernel
      { Interp.arrays = [ ("x", xs) ]; scalars = [ ("n", 16.0) ] }
  in
  let y = List.assoc "y" res.Interp.out_arrays in
  let exact = Picachu_nonlinear.Softmax.exact_row xs in
  let worst = ref 0.0 in
  Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. exact.(i)))) y;
  Printf.printf "Max error vs float64 softmax: %.3e\n" !worst;

  (* 4. Compare against the homogeneous baseline CGRA of the paper's
     Figure 7a. *)
  let baseline =
    Compiler.compile (Compiler.baseline_options ()) (Kernels.softmax Kernels.Baseline)
  in
  Printf.printf "Baseline CGRA pass: %d cycles -> speedup %.2fx\n"
    (Compiler.pass_cycles baseline ~n)
    (float_of_int (Compiler.pass_cycles baseline ~n)
    /. float_of_int (Compiler.pass_cycles compiled ~n))
