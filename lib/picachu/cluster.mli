(** Fault-tolerant multi-replica serving — the one serving engine.

    Production traffic runs N replicas behind a router, and replicas crash,
    hang, and slow down.  This module simulates N replicas inside a
    deterministic discrete-event core ({!Event_queue}: binary heap,
    O(log n) per event, stable (time, seq) tie-breaking; arrivals stream
    from a cursor merged with the heap rather than sitting in it).

    {2 The step model}

    On each replica, one step emits one decode token for every live
    request, and the slowest member gates the step.  Under
    {!Traffic.policy.Continuous}, [slots] decode slots refill at every step
    boundary and a joiner's prefill overlaps the step it joins.  Under
    [Static b], an idle replica forms a batch of [b] queued requests (or
    whatever is queued once no more arrivals will come), prefills it
    together, and decodes until every member finishes before taking
    anything else.  Arrivals at the same instant all queue — or are shed
    against a full queue — before any replica starts a step.

    {2 Faults and defenses}

    The core adds a seeded replica-level failure model (crash / hang-straggler / transient
    slowdown with MTTF/MTTR renewal), and defends at the front end with
    per-request timeouts, bounded retries with exponential backoff and
    jitter, optional hedged requests after a p95-derived delay, per-replica
    circuit breakers (closed / open / half-open with probe admission), and
    health-check-driven ejection.  A crashed replica's in-flight and queued
    requests are re-queued on survivors ({!Picachu_error.Replica_crashed}
    is transient, so re-queuing is not charged against the retry budget);
    a timed-out attempt is retried within a bounded budget
    ({!Picachu_error.Deadline_exceeded}) — the typed taxonomy, not strings,
    drives the policy.

    {2 Determinism}

    {!Scheduler.run} is the 1-replica, zero-fault, defense-free case of
    {!run} (the pinned golden-trace MD5 holds through both).  Every stream
    is seeded and all arithmetic is sequential, so traces are bit-identical
    across [PICACHU_DOMAINS] pool sizes and repeat runs at every fault
    profile. *)

module Mz = Picachu_llm.Model_zoo

(** {2 Routing} *)

type router = Round_robin | Least_loaded | Power_of_two

val router_name : router -> string
(** ["round-robin"] / ["least-loaded"] / ["p2c"] — also the CLI spelling. *)

val router_of_string : string -> router option

(** {2 Failure model} *)

type fault_profile = {
  fp_seed : int;
  mttf_s : float;  (** mean time between failures; [infinity] disables *)
  mttr_s : float;  (** mean outage duration *)
  p_crash : float;  (** mode weights, normalized over the three *)
  p_hang : float;
  p_slow : float;
  hang_factor : float;  (** step-duration multiplier while hung *)
  slow_factor : float;  (** step-duration multiplier while slowed *)
}

val profile_none : fault_profile

val profile_crash : ?seed:int -> mttf:float -> mttr:float -> unit -> fault_profile
val profile_straggler : ?seed:int -> mttf:float -> mttr:float -> unit -> fault_profile
val profile_mixed : ?seed:int -> mttf:float -> mttr:float -> unit -> fault_profile
(** Crash-only / hang-only / 50-30-20 crash-hang-slow mixes. *)

val profile_active : fault_profile -> bool

val profile_of_string :
  ?seed:int -> ?mttf:float -> ?mttr:float -> string -> fault_profile option
(** ["none"], ["crash"], ["straggler"], ["mixed"] — the CLI spellings. *)

(** {2 Front-end defenses} *)

type defenses = {
  timeout_s : float;  (** per-attempt deadline; [infinity] disables *)
  max_retries : int;  (** deadline-driven retries per request *)
  backoff_s : float;  (** base redispatch backoff, doubling per wait *)
  backoff_jitter : float;  (** jitter fraction on the backoff, seeded *)
  requeue_on_crash : bool;  (** re-queue a crashed replica's requests *)
  hedge : bool;  (** duplicate slow requests after a p95-derived delay *)
  hedge_min_samples : int;  (** completions needed before hedging arms *)
  breaker : bool;  (** per-replica circuit breakers *)
  breaker_threshold : int;  (** consecutive failures to trip *)
  breaker_cooldown_s : float;  (** open -> half-open delay *)
  health_interval_s : float;  (** recovered-replica re-admission cadence *)
}

val no_defenses : defenses
(** Everything off — crashes lose their requests.  The chaos baseline. *)

val default_defenses : defenses

(** {2 Configuration} *)

type config = {
  replicas : int;
  router : router;
  policy : Traffic.policy;  (** per-replica batching policy *)
  slots : int;  (** continuous-batching slots per replica *)
  queue_capacity : int;  (** admission-queue bound per replica *)
  seed : int;  (** front-end stream: p2c choices, backoff jitter *)
  profile : fault_profile;
  defenses : defenses;
}

val default_config :
  ?replicas:int ->
  ?router:router ->
  ?policy:Traffic.policy ->
  ?slots:int ->
  ?queue_capacity:int ->
  ?seed:int ->
  ?profile:fault_profile ->
  ?defenses:defenses ->
  unit ->
  config
(** 2 replicas, round-robin, continuous batching, 8 slots, queue 64,
    seed 1, no faults, {!default_defenses}. *)

(** {2 Results} *)

type counters = {
  crashes : int;
  hangs : int;
  slowdowns : int;
  requeued : int;  (** crash-displaced dispatches (not charged to retries) *)
  retries : int;  (** deadline-driven re-dispatches *)
  timeouts : int;  (** attempts that outlived the per-request deadline *)
  hedges : int;  (** duplicate attempts launched *)
  hedge_wins : int;  (** hedged attempts that answered first *)
  breaker_trips : int;  (** closed/half-open -> open transitions *)
  probes : int;  (** half-open probe admissions *)
  dispatches : int;  (** every enqueue onto a replica, all causes *)
}

type report = {
  completions : Traffic.completion list;  (** in completion order *)
  arrivals : int;
  answered : int;
  dropped : int;  (** rejected by a full admission queue *)
  failed : int;  (** timed out / lost after the retry budget *)
  availability : float;  (** answered / (arrivals - dropped); 1.0 vacuously *)
  amplification : float;  (** dispatches / (arrivals - dropped) *)
  makespan_s : float;
  goodput_tps : float;  (** completed tokens per second over the makespan *)
  ttft : Traffic.pct;
  latency : Traffic.pct;
  tiers : (Serving.tier * int) list;
  served_per_replica : int array;
  counters : counters;
}

val accounting_ok : report -> bool
(** The availability identity: answered + dropped + failed = arrivals.
    Holds for every scenario — asserted by the chaos CI smoke. *)

val run : config -> cost:Traffic.cost_source -> Traffic.arrival list -> report
(** Simulate a trace through the cluster.  Raises [Invalid_argument] on
    non-positive knobs (a NaN [mttf_s] or [timeout_s] included; [infinity]
    is legal and means "off"), a malformed request, or a non-finite arrival
    time; never raises on overload —
    shed and lost load is reported, not thrown. *)

val serve :
  ?budget:int ->
  ?gpu:Picachu_llm.Gpu_model.t ->
  config ->
  Simulator.config ->
  Mz.t ->
  Traffic.trace_spec ->
  report
(** [run] over [Traffic.trace spec] with {!Traffic.robust_source}
    costs — the end-to-end entry the CLI and benchmarks use. *)
