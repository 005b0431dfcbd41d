(** Plain-text table rendering for the experiment harness. *)

val section : string -> unit
(** Underlined heading on stdout. *)

val table : header:string list -> string list list -> unit
(** Column-aligned table; every row must have the header's arity. *)

val fmt_f : float -> string
(** Compact float (3 significant decimals). *)

val fmt_x : float -> string
(** Ratio as ["1.86x"]. *)

val fmt_pct : float -> string
(** Fraction as ["46.3%"]. *)

val fmt_delta : float -> string
(** Signed small delta, paper Table 5/6 style: ["+0.05" / "-0.21" / "0.00"]. *)

val serve_table : Scheduler.fleet -> unit
(** Render a {!Scheduler.fleet}: the TTFT/latency percentile table (ms) and
    a completed/dropped/makespan/throughput summary line plus the per-tier
    tally. *)

val cluster_table : Cluster.report -> unit
(** Render a {!Cluster.report}: percentile table (ms), the availability
    accounting identity (greppable ["(identity ok)"] for the CI smokes),
    availability/goodput/amplification, fault and defense counters, the
    per-replica completion spread, and the per-tier tally. *)

val pass_table : Pipeline.pass_stats list -> unit
(** Render [Compiler.compile_stats ()]: pass, runs, total wall-ms, and the
    pass's counters inline.  Wall times are nondeterministic — keep this
    out of golden-diffed transcripts. *)

val search_effort_line : Picachu_cgra.Mapper.counters -> unit
(** One-line mapper search-effort summary: II attempts and backtracks. *)

val codesign_table : Codesign.result -> unit
(** Render a {!Codesign.result}: the accepted-move trace, search totals,
    the discovered-vs-reference architecture comparison, and a greppable
    ["beats reference"] verdict line for the CI smoke. *)
