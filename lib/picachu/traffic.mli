(** The serving vocabulary: batching policies, seeded arrival streams, cost
    sources, and per-request results.

    {!Cluster} simulates over these types and {!Scheduler} re-exports them
    with [include], so [Scheduler.arrival], [Scheduler.completion] and the
    rest are the very same types — defined once, here.  Determinism: the
    arrival stream is a pure function of its seed. *)

module Mz = Picachu_llm.Model_zoo

type policy =
  | Static of int  (** fixed batch of the given size, run to completion *)
  | Continuous  (** slots refill per step; prefills join the running batch *)

val policy_name : policy -> string
(** ["static=4"] / ["continuous"] — also the CLI spelling. *)

(** {2 Arrival streams} *)

type trace_spec = {
  rps : float;  (** mean arrival rate (Poisson) *)
  requests : int;  (** total requests in the trace *)
  prompt_buckets : int array;  (** prompt lengths, sampled uniformly *)
  generate_buckets : int array;  (** generation lengths, sampled uniformly *)
  seed : int;
}

val default_trace : ?seed:int -> rps:float -> requests:int -> unit -> trace_spec
(** Prompt buckets {64, 128, 256, 512}, generate buckets {16, 32, 64},
    seed 1. *)

type arrival = { id : int; at : float; request : Serving.request }

val trace : trace_spec -> arrival list
(** The seeded stream, in arrival order: exponential inter-arrival times at
    rate [rps], prompt/generate drawn uniformly from the buckets.  Raises
    [Invalid_argument] (naming [Scheduler.trace]) on a rate that is not
    finite and positive, or a non-positive request count or bucket. *)

(** {2 Cost sources} *)

type cost_source = Serving.request -> Serving.phase_costs * Serving.tier
(** What one request costs and which serving tier answered it. *)

val robust_source :
  ?budget:int ->
  ?gpu:Picachu_llm.Gpu_model.t ->
  Simulator.config ->
  Mz.t ->
  cost_source
(** {!Serving.robust_costs} as a cost source — degraded tiers show up in the
    latency distribution — memoized per distinct (prompt, generate) bucket
    (the underlying kernel compiles are already shared through the
    content-addressed compile cache). *)

(** {2 Results} *)

type completion = {
  c_id : int;
  c_request : Serving.request;
  c_arrival_s : float;  (** absolute arrival time *)
  c_ttft_s : float;  (** first token minus arrival: queueing + prefill *)
  c_latency_s : float;  (** completion minus arrival *)
  c_tpot_s : float;  (** mean seconds per generated token after the first *)
  c_tier : Serving.tier;
}

type pct = { p50 : float; p95 : float; p99 : float }

val percentiles : (completion -> float) -> completion list -> pct
(** p50/p95/p99 of a per-completion metric ({!Picachu_tensor.Stats.percentile}
    with monomorphic [Float.compare]); all-zero on an empty list. *)

val tier_tally : completion list -> (Serving.tier * int) list
(** Completions per serving tier, omitting tiers that served nothing. *)
