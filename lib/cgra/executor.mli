(** Cycle-accurate execution of a mapped loop — the stand-in for the paper's
    RTL evaluation framework.

    The executor runs the software-pipelined schedule exactly as the
    configured fabric would: iteration [k] of node [u] issues at cycle
    [t(u) + k*II]; every operand read is dynamically verified against the
    producer's completion cycle plus the mesh routing distance, so a
    mapping bug (a dependence the scheduler missed, a mis-patched phi, a
    wrong offset after unrolling) surfaces as a {!Timing_violation} rather
    than silently producing the right value at the wrong time.

    Operand semantics come from {!Picachu_ir.Interp.eval_op}, the same
    definition the reference interpreter runs; the executor adds the
    timing, routing and fault model around it.  Functional results must
    equal the sequential reference interpreter — asserted across the whole
    kernel library in the test suite. *)

module Kernel = Picachu_ir.Kernel
module Dfg = Picachu_dfg.Dfg

exception Timing_violation of string
exception Execution_error of string

type result = {
  out_arrays : (string * float array) list;
  out_scalars : (string * float) list;  (** exported accumulators *)
  cycles : int;  (** completion cycle of the last issued operation *)
}

val run_loop :
  ?fault:Fault.injector ->
  Arch.t ->
  Kernel.loop ->
  Dfg.t ->
  Mapper.mapping ->
  arrays:(string * float array) list ->
  scalars:(string * float) list ->
  result
(** The trip count comes from the loop's trip scalar (like the reference
    interpreter). Requires [vector_width = 1] (the INT16 lane mode shares
    this schedule; its lanes are SIMD within a tile).

    [fault] samples the {!Fault} models while executing: RF read disturbance
    and NoC drops at operand reads, FU/LUT output corruption at result
    latches.  Faults perturb values only — never the schedule — so a faulty
    run completes (no exception) and mismatches surface as corrupted
    outputs.  Omitting [fault] (or passing an injector over {!Fault.none})
    leaves the execution byte-identical to the hook-free path. *)
