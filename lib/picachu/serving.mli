(** Request-level serving simulation.

    LLM inference in production is a prefill followed by a stream of decode
    steps; this module composes the end-to-end simulator's phase costs into
    request latency and sustained token throughput, for PICACHU and for the
    A100 roofline — the deployment view of the paper's per-pass results.

    Decode steps are evaluated at a few KV-cache lengths and interpolated
    linearly in between (attention cost is linear in the cache length). *)

module Workload = Picachu_llm.Workload
module Mz = Picachu_llm.Model_zoo

type request = { prompt : int; generate : int }

type phase_costs = {
  prefill_s : float;
  decode_s_at : (int * float) list;  (** (cache length, per-step seconds) *)
}

type summary = {
  ttft_s : float;  (** time to first token (prefill) *)
  total_s : float;  (** full request latency *)
  tokens_per_s : float;  (** decode throughput over the generation *)
}

val picachu_costs : Simulator.config -> Mz.t -> request -> phase_costs
val gpu_costs : Picachu_llm.Gpu_model.t -> Mz.t -> request -> phase_costs
val decode_cost : phase_costs -> int -> float
(** [decode_cost costs ctx] is the per-step decode seconds at KV-cache
    length [ctx]: linear interpolation between the anchors, clamped outside
    their range.  [summarize] charges exactly this per decode step.  Raises
    [Invalid_argument] when [costs] has no anchors. *)

val summarize : phase_costs -> request -> summary
(** Raises [Invalid_argument] on non-positive prompt/generate. *)

(** {2 Graceful degradation}

    The north star is a system where a request is {e always} answered: when
    the fast fused PICACHU path fails (an unmappable kernel on the deployed
    fabric, an uncorrected execution fault), the request degrades to the
    unfused baseline CGRA, and past that to the CPU/GPU roofline model —
    slower tiers that cannot fail structurally.  Each answer records which
    tier served it, every tier failure along the way (typed, not stringly),
    and how many transient retries were spent. *)

type tier = Fused | Baseline_cgra | Roofline

val tier_name : tier -> string

type failure = {
  failed_tier : tier;
  error : Picachu_error.t;  (** the tier's final error *)
  attempts : int;  (** transient retries spent inside the tier *)
}

type robust = {
  r_costs : phase_costs;  (** costs of the tier that answered *)
  r_summary : summary;
  served_by : tier;
  fallbacks : failure list;  (** failed tiers, in attempt order *)
  retries : int;  (** total transient retries across all tiers *)
}

val robust_costs_with :
  ?budget:int -> (tier * (request -> phase_costs)) list -> request -> robust
(** The generic engine: try tiers in order.  A tier raising a transient
    {!Picachu_error.t} (per {!Picachu_error.transient}) is retried up to
    [budget] extra attempts (default 1); structural errors skip straight to
    the next tier.  Foreign exceptions propagate.  Raises
    [Picachu_error.Error (All_tiers_failed _)] when every tier fails. *)

val robust_costs :
  ?budget:int ->
  ?gpu:Picachu_llm.Gpu_model.t ->
  Simulator.config ->
  Mz.t ->
  request ->
  robust
(** The production tier ladder: fused PICACHU on [cfg], then the unfused
    baseline CGRA (homogeneous arch, primitive kernels, scalar), then the
    GPU roofline (default A100).  The roofline tier is analytic and cannot
    fail, so every request is answered (availability 1.0). *)
