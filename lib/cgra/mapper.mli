(** Modulo-scheduling mapper (paper §4.3 "DFG Mapping").

    Maps a DFG onto the CGRA's modulo routing resource graph using Rau-style
    iterative modulo scheduling with ejection, extended with spatial
    placement: a schedule slot is a (cycle, tile) pair, each tile issues one
    operation per cycle modulo II, and operand transport over the mesh adds
    Manhattan-distance cycles to every dependence.  The search starts at
    [max(ResMII, RecMII)] and raises II until the scheduler converges within
    its ejection budget, honouring:

    - tile capability (heterogeneous FU sets, §4.2.1),
    - memory-port columns for loads/stores,
    - loop-carried dependences [t(phi) >= t(src) + lat + hops - II*distance].

    Simplifications, documented in DESIGN.md: mesh links are modelled by
    distance latency (no per-hop slot contention), and values arriving early
    wait in the consumer's register file.  Like the paper's own compiler the
    heuristic is not optimal (their §5.3.4 blames the mapper for sub-linear
    4x8 scaling). *)

module Dfg = Picachu_dfg.Dfg

type placement = { time : int; tile : int }

type mapping = {
  ii : int;
  schedule : placement array;  (** indexed by DFG node id *)
  makespan : int;  (** completion time of the first iteration *)
  routed_hops : int;  (** total mesh hops used (wire-pressure metric) *)
  arch_name : string;
}

exception Unmappable of string

type counters = {
  ii_attempts : int;
  backtracks : int;
  warm_hits : int;
  warm_rejects : int;
}
(** Process-global search-effort totals: [ii_attempts] counts scheduling
    attempts (one per (II, salt) pair tried) and [backtracks] counts node
    ejections inside those attempts.  Atomics — exact under the domain pool;
    the compilation pipeline snapshots them for its per-pass stats.
    [warm_hits] and [warm_rejects] are always 0: the mapper has no warm
    start, and the fields remain only for callers that still read them. *)

val counters : unit -> counters
val reset_counters : unit -> unit

val res_mii : Arch.t -> Dfg.t -> int
(** Resource-constrained lower bound on II (capability-class aware). *)

val transport_mii : Arch.t -> Dfg.t -> int
(** Transport-aware recurrence lower bound.  Around any loop-carried cycle
    the mapper enforces [sum (lat + hops) <= II * distance]; when the back
    edge's endpoints have disjoint capability classes the operand must pay
    at least the minimum inter-class mesh distance, so
    [ceil((cycle_latency + min_hop) / distance)] is a true lower bound on
    the II of every schedule the mapper could accept. *)

val min_ii : Arch.t -> Dfg.t -> int
(** [max (res_mii, rec_mii, transport_mii)]. *)

val lut_names : Dfg.t -> string list
(** Distinct LUT tables the loop references ([Op.Lut] operands, including
    ops subsumed into fused nodes), in first-reference order. *)

val lut_rom_bytes : Dfg.t -> int
(** Summed ROM bytes of {!lut_names} per {!Picachu_numerics.Lut_catalog} —
    the tile-resident table state the loop's mapping keeps loaded.  Every
    tile able to execute the lookup holds its own copy, so {!map_dfg}
    rejects the DFG ([Unmappable]) when this exceeds
    [Arch.lut_capacity_bytes]. *)

val map_dfg : ?max_ii:int -> Arch.t -> Dfg.t -> mapping
(** Raises [Unmappable] if no II up to [max_ii] (default 128) works — e.g. a
    node's op is supported by no tile.  The II search escalates
    geometrically from {!min_ii} with binary refinement between the last
    failure and the first success, so hard kernels stop paying one full
    failed Rau search per skipped II level. *)

val loop_cycles : mapping -> trips:int -> int
(** Steady-state execution time of [trips] iterations:
    [makespan + (trips - 1) * ii]. *)

val utilization : mapping -> Dfg.t -> Arch.t -> float
(** Fraction of FU slots per II window actually issuing. *)
