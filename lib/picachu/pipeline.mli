(** Typed pass manager for the staged compilation pipeline (paper §4.3,
    Figure 6).

    A pass is a named, instrumented transformation between typed artifacts
    (kernel IR -> transformed kernel -> per-loop DFG -> fused DFG -> modulo
    schedule).  Passes compose explicitly with {!(>>>)}; running one
    records wall time and invocation counts into a process-global registry
    ({!stats}), optionally dumps its artifact (the CLI's [--dump-after]),
    and — when the [PICACHU_VERIFY] knob is on — checks a per-pass
    post-condition, so a verification failure names the pass that produced
    the bad artifact instead of pointing at the whole compile.

    The registry is mutex-protected and counters snapshot external atomic
    sources, so stats stay exact when compiles fan out across the domain
    pool. *)

type pass_stats = {
  pass : string;
  runs : int;  (** invocations, including ones that raised *)
  wall_s : float;  (** total wall time across runs (pass body only) *)
  counters : (string * int) list;  (** name-sorted pass-specific tallies *)
}

exception Pass_failed of { pass : string; findings : string list }
(** Raised by {!run} when a pass's post-condition reports Error-severity
    findings (only with the [PICACHU_VERIFY] knob on).  [Compiler] converts
    this into [Picachu_error.Verification_failed], prefixing each finding
    with the pass name. *)

type ('a, 'b) t
(** A pass (or a composition of passes) from artifact ['a] to ['b]. *)

val v :
  name:string ->
  ?post:('b -> Picachu_verify.Finding.t list) ->
  ?dump:('b -> string) ->
  ('a -> 'b) ->
  ('a, 'b) t
(** [v ~name ?post ?dump f] — an instrumented pass.  [post] is the
    artifact's independent validator (Error findings gate when verification
    is enabled; Warnings are advisory and ignored here).  [dump]
    serializes the artifact for [--dump-after]. *)

val ( >>> ) : ('a, 'b) t -> ('b, 'c) t -> ('a, 'c) t
(** Left-to-right composition.  Each constituent pass keeps its own
    instrumentation. *)

val skip : ('a, 'a) t
(** The identity — an uninstrumented no-op for optional stages (e.g. the
    fusion stage under [baseline_options]). *)

val run : ('a, 'b) t -> 'a -> 'b

val declare : string -> unit
(** Pre-register a pass name so {!stats} lists it (with zero runs) in
    declaration order; undeclared passes append in first-run order. *)

val bump : pass:string -> string -> int -> unit
(** [bump ~pass counter n] adds [n] to a named per-pass tally (e.g.
    ["candidates"] on the unroll pass, ["fused-nodes"] on fusion). *)

val register_counter_source :
  pass:string -> ?reset:(unit -> unit) -> (unit -> (string * int) list) -> unit
(** Attach an external counter snapshot to a pass — e.g. the mapper's
    process-global search-effort atomics appear under the schedule pass.
    [reset] is invoked by {!reset}. *)

val stats : unit -> pass_stats list
val reset : unit -> unit
(** Zero all runs, times and tallies (including registered sources). *)

val set_dump_after : ?sink:(pass:string -> string -> unit) -> string option -> unit
(** Arm (or disarm, with [None]) artifact dumping: when a pass with a
    [dump] serializer and a matching name completes, its artifact is sent
    to [sink] (default: [print_string]). *)
