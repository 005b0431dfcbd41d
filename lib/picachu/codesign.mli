(** Automated HW/SW co-design search over the CGRA architecture space.

    MACO (PAPERS.md) automates CGRA hardware/software co-design; this module
    reproduces the substance with a seeded simulated-annealing search over
    grid dimensions, the per-tile FU kind mix ({!Picachu_cgra.Arch.kinds}),
    the CoT share, and the per-tile LUT ROM budget
    ([lut_capacity_bytes]), scoring each candidate with
    {!Explore.evaluate_arch} on the full kernel roster.

    {2 Search mechanics}

    The state is a whole architecture instance.  Neighbor moves change one
    knob: grow/shrink a grid dimension (re-interleaving the body at the
    current CoT share), flip one non-corner tile CoT <-> BaT, re-interleave
    the body at a perturbed share, or halve/double the LUT capacity.
    Acceptance is Metropolis under a geometric cooling schedule; candidates
    are generated and accepted {e sequentially} on the calling thread, but
    each generation's batch of candidates is {e evaluated} concurrently over
    [lib/parallel].

    Every candidate is a full compile of the roster on its architecture,
    through the content-addressed cache, so revisiting a design costs no
    mapper work.

    {2 Determinism}

    All random draws (move selection and Metropolis) happen on the calling
    thread in a fixed order, one Metropolis draw per candidate whether or
    not it is needed; candidate evaluation is deterministic per candidate
    (the content-addressed cache holds deterministic values); so the whole
    trace is a pure function of the seed and config, independent of the
    domain-pool size. *)

type objective =
  | Perf_per_area  (** maximize {!Explore.point.perf_per_area} *)
  | Throughput_under_cap of float
      (** maximize geomean throughput subject to area <= cap (mm2, on
          {!Explore.arch_area}); candidates over the cap are infeasible *)

type config = {
  iters : int;  (** total candidate evaluations *)
  batch : int;  (** candidates evaluated concurrently per generation *)
  seed : int;
  backend : Picachu_ir.Kernels.backend;
  objective : objective;
  init : Picachu_cgra.Arch.t option;
      (** starting design; default the paper's hand-designed 4x4 at a 2/3
          CoT share (the {!Explore.reference_point} architecture) *)
}

val default_config : config
(** 64 iterations, batch 4, seed 1, Taylor, [Perf_per_area], default init. *)

type trace_entry = {
  step : int;  (** candidate ordinal, 1-based *)
  move : string;  (** e.g. ["flip"], ["rows+1"], ["lut/2"] *)
  arch_name : string;
  score : float option;  (** [None]: unmappable or over the area cap *)
  accepted : bool;
  best_score : float;  (** running best after this step *)
}

type result = {
  config : config;
  init_point : Explore.point;
  best : Explore.point;
  best_arch : Picachu_cgra.Arch.t;
  evaluated : int;
  accepted_count : int;
  infeasible : int;
  trace : trace_entry list;  (** in step order, one entry per candidate *)
}

val score : objective -> Explore.point -> float option
(** The scalar a point is ranked by under an objective; [None] if the point
    is infeasible (over the cap). *)

val run : ?config:config -> unit -> result
(** Run the search.  The returned trace is pinned by [(config, seed)] —
    bit-identical across repeat invocations and across domain-pool sizes. *)
