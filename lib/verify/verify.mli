(** Independent static verification of the compilation pipeline.

    Three passes re-derive, from first principles, the legality of what the
    compiler emits — deliberately sharing no logic with the code being
    checked (the mapper, the fusion pass, [Kernel.validate]) beyond the
    type definitions themselves:

    - {!lint_kernel}: SSA linting of the loop IR — dense ids,
      def-before-use (phi back edges excepted), per-op arity, load/store
      offset sanity, stream production order, scalar liveness, dead
      definitions and effect-free loops.
    - {!check_dfg}: DFG invariants — edge endpoints in range, distances in
      {0,1} with loop-carried edges only into phi-carrying nodes,
      acyclicity of the distance-0 subgraph, and (given the source loop)
      exact 1:1 accounting of fused-node [members]/[origins] against the
      loop body.
    - {!check_mapping}: modulo-schedule translation validation — at most
      one node per (tile, cycle mod II) slot, tile capability and Shared
      Buffer port constraints, the dependence inequality
      [t(dst) >= t(src) + lat + hops - II*distance] for every edge, and an
      independent recount of [routed_hops] and [makespan].

    Every check reports through {!Finding.t}; Error-severity findings are
    what the [PICACHU_VERIFY] compile gate and the [picachu lint] CLI act
    on.  {!Precision} holds the companion static error analysis that
    [picachu lint] runs at each kernel's selected format. *)

val enabled : unit -> bool
(** True when the [PICACHU_VERIFY] environment knob is set (to [1], [true],
    [on] or [yes]); read by [Compiler.compile_result] to decide whether to
    gate every compile behind the validator.  Off by default in hot paths;
    the test suite switches it on. *)

val lint_kernel : Picachu_ir.Kernel.t -> Finding.t list
(** Lint all loops of a kernel in program order, tracking which streams
    have been produced and which scalars are live. *)

val check_dfg : ?source:Picachu_ir.Kernel.loop -> Picachu_dfg.Dfg.t -> Finding.t list
(** DFG invariants; with [source], additionally checks members/origins
    consistency against the loop the graph was built from. *)

val check_mapping :
  Picachu_cgra.Arch.t -> Picachu_dfg.Dfg.t -> Picachu_cgra.Mapper.mapping ->
  Finding.t list
(** Re-derive legality of a mapping.  An empty result means the schedule is
    a valid modulo schedule of the graph on that architecture and the
    mapper's claimed statistics are honest. *)

val check_loop :
  arch:Picachu_cgra.Arch.t ->
  ?source:Picachu_ir.Kernel.loop ->
  Picachu_dfg.Dfg.t ->
  Picachu_cgra.Mapper.mapping ->
  Finding.t list
(** {!check_dfg} followed by {!check_mapping}. *)
