(** The PICACHU compiler as a staged pipeline (paper §4.3, Figure 6).

    Compilation is a composition of typed, named passes ({!Pipeline}):

    {v kernel IR -(vectorize)-> kernel -(unroll)-> kernel
       per loop: -(extract)-> DFG -(fuse)-> DFG -(schedule)-> mapping v}

    Each pass is instrumented (wall time, invocation counts, pass-specific
    tallies — {!compile_stats}) and carries its own post-condition from the
    independent verifier, so with the [PICACHU_VERIFY] knob on a bad
    artifact fails the compile {e naming the pass that produced it}.
    Unroll factors are auto-tuned: the pipeline compiles each candidate and
    keeps the one with the best steady-state throughput, exactly the role
    loop unrolling plays in Figure 7a.  Results (successes and failures)
    are memoized in a content-addressed cache keyed by the structural
    digest of the canonicalized kernel IR, the architecture and the option
    knobs — see {!cache_key}. *)

module Kernel = Picachu_ir.Kernel
module Kernels = Picachu_ir.Kernels
module Dfg = Picachu_dfg.Dfg
module Arch = Picachu_cgra.Arch
module Mapper = Picachu_cgra.Mapper

type options = {
  arch : Arch.t;
  fuse : bool;
  unroll_candidates : int list;
  vector : int;  (** 1 = FP32/FP16 mode; 4 = INT16 4-lane mode *)
}

val picachu_options : ?arch:Arch.t -> ?vector:int -> unit -> options
(** Fusion on, UF in {1,2,4}, default 4x4 heterogeneous CGRA. *)

val baseline_options : ?arch:Arch.t -> unit -> options
(** The §5.3.2 baseline: homogeneous CGRA, no fusion, no unrolling,
    scalar. *)

type compiled_loop = {
  source : Kernel.loop;  (** after transformation *)
  dfg : Dfg.t;  (** after fusion (when enabled) *)
  mapping : Mapper.mapping;
}

type compiled = {
  kernel : Kernel.t;
  loops : compiled_loop list;
  unroll : int;
  vector : int;
  arch : Arch.t;
  arch_name : string;
}

val compile_with_unroll : options -> int -> Kernel.t -> compiled
(** One pipeline run at a fixed unroll factor (no tuning).  Raises
    {!Mapper.Unmappable} like the mapper, and {!Pipeline.Pass_failed} when
    a pass post-condition finds Error-severity problems (only with the
    [PICACHU_VERIFY] knob on). *)

val compile_result : options -> Kernel.t -> (compiled, Picachu_error.t) result
(** The input is first checked with {!Picachu_ir.Kernel.validate}: a
    malformed kernel (for example one carrying a fused opcode) returns
    [Error (Verification_failed _)] with one ["invalid kernel: …"] finding
    before any pass runs.  Auto-tuned over [unroll_candidates] (best steady-state cycles at a
    1024-element pass); candidates that fail to map are skipped.  When
    {e every} candidate fails, returns
    [Error (Unmappable { kernel; reasons })] carrying each candidate's
    unroll factor and mapper message — nothing is discarded.  A
    {!Pipeline.Pass_failed} from any candidate becomes
    [Error (Verification_failed _)] with each finding prefixed by the
    offending pass's name. *)

val compile : options -> Kernel.t -> compiled
(** [compile_result] unwrapped; raises {!Picachu_error.Error} on failure. *)

val select_format :
  ?budget:float ->
  ?candidates:Picachu_numerics.Numfmt.t list ->
  Kernel.t ->
  Picachu_verify.Precision.choice
(** {!Picachu_verify.Precision.select_format} run as the registered
    ["select-format"] pipeline pass: picks the cheapest candidate format
    whose statically proven error bound fits the budget (default
    {!Picachu_verify.Precision.default_budget}), falling back to the
    best-proven (or widest) candidate.  Instrumented under
    {!compile_stats}: candidates tried/proven and fallback count. *)

val verify_compiled : options -> compiled -> Picachu_verify.Finding.t list
(** Error-severity findings from the independent validator
    ({!Picachu_verify.Verify}) over everything a compile emitted: the
    transformed kernel IR, each loop's DFG against its source, and each
    modulo schedule against the architecture.  [[]] means the compile
    verifies clean.  During compilation the same checks run {e per pass}
    as post-conditions; this is the after-the-fact sweep for a [compiled]
    you already hold. *)

val pass_cycles : compiled -> n:int -> int
(** One pass of the whole kernel (all loops) over [n] elements. *)

val per_channel_cycles : compiled -> dim:int -> int
(** Steady-state cost of one channel of length [dim] — what the Shared
    Buffer data-flow model consumes. Excludes first-iteration prologue,
    which successive channels pipeline away. *)

val cache_key : options -> Kernel.t -> string
(** The content address: an MD5 hex digest over
    [Kernel_text.structural_digest kernel | Arch.structural_digest arch | fuse |
    vector | unroll_candidates].  Kernel and loop {e names} are not part of
    the address — structurally identical kernels share an entry. *)

val memo_result : options -> Kernel.t -> (compiled, Picachu_error.t) result
(** Content-addressed memoization of {!compile_result} for any kernel,
    library or user-authored.  Failures are cached too (negative caching):
    a known-unmappable kernel is answered from the table without re-running
    the mapper's II search.  Hits never bump {!compile_count}. *)

val cache_clear : unit -> unit
(** Drop every memoized entry (hit/miss totals are kept).  Benchmarks and
    the search-effort gate use this to force genuinely cold compiles. *)

val cached_result :
  options -> Kernels.variant -> string -> (compiled, Picachu_error.t) result
(** [cached_result opts variant kernel_name] — {!memo_result} on a library
    kernel looked up by name; [Error (Unknown_kernel _)] (not cached) when
    the name does not resolve. *)

val cached : options -> Kernels.variant -> string -> compiled
(** [cached_result] unwrapped; raises {!Picachu_error.Error} on failure. *)

val compile_count : unit -> int
(** Number of (non-memoized) compile pipeline runs since program start —
    observability for the cache: repeated [memo_result] calls on any key,
    failing or not, must not increase it. *)

type cache_stats = { hits : int; misses : int; entries : int }

val cache_stats : unit -> cache_stats
(** Hit/miss totals since program start and current entry count. *)

val pass_names : string list
(** The pipeline's pass names in order:
    ["vectorize"; "unroll"; "extract"; "fuse"; "schedule"] — the valid
    arguments to [--dump-after] and {!Pipeline.set_dump_after}. *)

val compile_stats : unit -> Pipeline.pass_stats list
(** Per-pass instrumentation (runs, wall time, counters) in pipeline
    order: vectorize, unroll, extract, fuse, schedule. *)

val reset_stats : unit -> unit
(** Zero {!compile_stats} (including the mapper's search-effort
    counters). *)
