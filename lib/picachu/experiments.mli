(** One reproduction entry per table and figure of the paper's evaluation
    (§5), plus the design ablations DESIGN.md calls out.

    Every [figN]/[tabN] function is pure data (deterministic given the fixed
    seeds baked in); [print_all] / [print] render them as the tables
    EXPERIMENTS.md records.  Paper-vs-measured commentary lives in
    EXPERIMENTS.md. *)

module Cost = Picachu_cgra.Cost

(* -- Figure 1: runtime breakdown on the A100 ------------------------------ *)

type fig1_row = {
  f1_model : string;
  f1_gemm_s : float;
  f1_softmax_s : float;
  f1_norm_s : float;
  f1_act_s : float;
  f1_rope_s : float;
  f1_nl_frac : float;
}

val fig1a : unit -> fig1_row list
(** GPT2-XL, OPT-6.7B, BigBird, LLaMA2-13B at sequence length 1024. *)

val fig1b : unit -> (int * float) list
(** LLaMA2-7B nonlinear fraction across sequence lengths 128..2048. *)

(* -- Tables 2/5: perplexity ------------------------------------------------ *)

val tab2 : unit -> (string * (string * float) list) list
(** Per LLaMA-family surrogate: (backend, PPL) including FP16, I-BERT and
    gemmlowp. *)

val tab5 : unit -> (string * float * float * float) list
(** Per surrogate model: (FP16 PPL, delta ours-FP16, delta ours-INT16). *)

(* -- Table 3 (supplementary): operator accuracy ---------------------------- *)

val tab3 : unit -> (string * float * float) list
(** Per basic operator: worst relative error of the FP and INT datapaths
    over the operator's LLM-relevant input range. *)

(* -- Table 4: DFG patterns ------------------------------------------------- *)

val tab4 : unit -> (string * int * float) list
(** Per fused pattern: total occurrences across all kernel loops and the
    fraction of kernels containing it. *)

(* -- Table 6: zero-shot tasks ---------------------------------------------- *)

val tab6 : unit -> (string * (string * float * float * float) list) list
(** Per surrogate model, per task: (FP16 accuracy, delta ours-FP16, delta
    ours-INT16). *)

(* -- Table 7: area/power --------------------------------------------------- *)

val tab7 : unit -> Cost.breakdown
val tab7_fu_overheads : unit -> (string * float * float) list

(* -- Figure 3: survey scatter (static literature data) --------------------- *)

val fig3 : unit -> (string * string * float * float) list
(** (design, class, throughput GOPS, power mW) — reproduced as the static
    table behind the paper's survey scatter plot. *)

(* -- Figure 7: CGRA microbenchmarks ---------------------------------------- *)

type fig7a_row = {
  f7_loop : string;
  f7_base_cycles : int;
  f7_pic_cycles : int;
  f7_uf : int;
  f7_speedup : float;
}

val fig7a : unit -> fig7a_row list
(** Per kernel loop at a 1024-element pass: homogeneous baseline vs PICACHU
    (fusion + special FUs + tuned unrolling). *)

val fig7a_summary : fig7a_row list -> float * float
(** (geomean speedup, max speedup). *)

val fig7b : unit -> (string * (string * float) list) list
(** Per kernel: throughput on 3x3/4x4/5x5/4x8 and the split-4x8 mode,
    normalized to 3x3. *)

val fig7c : unit -> (string * (float * float) list) list
(** Per model (GPT2-XL, LLaMA2-7B): (buffer KB, speedup normalized to an
    effectively unlimited buffer). *)

val fig7d : unit -> (string * float) list
(** Per library kernel (every one vectorizes; softmax's divide loop splits
    per lane): INT16 4-lane speedup over the scalar FP path (below the
    theoretical 4x, §5.3.3). *)

(* -- Figures 8/9: end-to-end ----------------------------------------------- *)

val fig8a : unit -> (string * float * float) list
(** Per model: (Gemmini speedup vs CPU config, PICACHU speedup vs CPU). *)

val fig8b : unit -> (string * float * float) list
(** Per model (BigBird standing in for BERT, GPT2-XL): (Tandem speedup vs
    A100, PICACHU speedup vs A100), at the A100-throughput-matched scale. *)

val onesa : unit -> (string * float * float * float) list
(** Figure 8a extended with the ONE-SA baseline — per model: (Gemmini,
    ONE-SA, PICACHU) speedups over the CPU-offload configuration.  Opt-in
    ([experiments onesa]); the default transcript predates the baseline. *)

val fig9a : unit -> (string * float * float) list
(** Per OPT/LLaMA model: (PICACHU speedup vs A100, energy reduction). *)

val fig9b : unit -> (string * float * float) list
(** Per LLaMA model: nonlinear latency share on the A100 vs on PICACHU. *)

(* -- Supplementary ----------------------------------------------------------- *)

val supp_noc : unit -> (string * int * Picachu_cgra.Noc.report * Picachu_cgra.Rf.report) list
(** Per compiled kernel loop: (label, II, link-contention report,
    register-pressure report) — the audit of the mapper's routing and
    register-file abstractions. *)

val supp_models : unit -> (string * float * float * float) list
(** The Table 5 protocol applied to Mistral (GQA) and Falcon (MQA)
    surrogates — "upcoming" model families relative to the paper. *)

val supp_mapper :
  unit ->
  (string * int * int * int * Picachu_cgra.Mapper_exact.verdict) list
(** Mapper-quality audit: per Table 1 loop, (label, fused nodes, II lower
    bound, heuristic II, bounded-exhaustive probe verdict). *)

val supp_energy : unit -> (string * float * float) list
(** Per nonlinear operation: (name, CGRA pJ/element on the INT16 path,
    A100 pJ/element at 300W). *)

val supp_serving : unit -> (string * Serving.summary * Serving.summary) list
(** Request-level serving view: per model, (A100 summary, PICACHU summary)
    for a 1024-prompt/256-generate request. *)

val supp_outliers : unit -> (float * float * float * float) list
(** Outlier-magnitude sweep: (scale, FP16 PPL, ours-INT16 PPL, I-BERT PPL)
    — locates the collapse threshold of the static INT8 grid. *)

val supp_attrib : unit -> (string * float) list
(** Per-operator damage attribution: PPL with I-BERT substituted into one
    operator family at a time (FP16 elsewhere). *)

val supp_quant : unit -> (string * float) list
(** PPL of the composition {FP, W8} linear x {FP16, ours-INT16} nonlinear
    on the LLaMA-style surrogate — the paper's deployment setting. *)

val supp_decode : unit -> (string * float * float) list
(** One decode step at context 1024 (not a paper figure): per model, the
    A100's nonlinear share in the GEMV-bound regime and PICACHU's speedup at
    the matched scale. *)

(* -- Supplementary: resilience ---------------------------------------------- *)

val resilience_campaign : unit -> (float * Resilience.stats) list
(** DMR + bounded-re-execution fault campaign over the kernel roster at
    uniform per-site fault rates 0 .. 1e-2 (seed 1234).  The zero-rate
    row pins determinism: no injections, every trial Clean.  Trials run on
    the shared domain pool; results are independent of the pool size. *)

val resilience_serving : unit -> (string * float * (string * int) list) list
(** Serving under forced tier failures: per scenario, (availability,
    requests answered per tier).  Availability is 1.0 in every scenario —
    the roofline tier is analytic and cannot fail. *)

(* -- Supplementary: precision --------------------------------------------- *)

val supp_precision :
  unit -> (string * Picachu_numerics.Numfmt.t * float * bool * float) list
(** Accuracy vs cost of proven-bound format selection: per roster kernel,
    (chosen format, proven worst-case output error, fallback?, surrogate
    PPL delta of exact operator mathematics behind that format's I/O
    grid, per-tensor dynamically scaled like the ours-INT16 backend).
    Budget 1e-2. *)

(* -- Ablations -------------------------------------------------------------- *)

val ablation_fusion : unit -> (string * float) list
(** Per kernel: speedup of fusion on vs off (same arch, tuned UF). *)

val ablation_fp2fx : unit -> (string * float) list
(** Per exp-heavy kernel: speedup of the FP2FX/LUT special units vs the
    primitive-only expansion on the same heterogeneous fabric. *)

val ablation_hetero : unit -> (string * float * float) list
(** Per kernel: (universal-tile speedup over heterogeneous, universal area
    premium) — what the BaT/BrT/CoT split trades. *)

val ablation_dbuf : unit -> (string * float) list
(** Per model: slowdown with double buffering disabled. *)

val ablation_online_softmax : unit -> (string * float) list
(** Per model: relative softmax-stage speed of the FlashAttention-style
    online kernel (reduce overlapped with the scores GEMM, one fewer data
    pass) vs the three-loop form. Values below 1 — the measured outcome —
    show that on the compute-bound CGRA the doubled exponentials are not
    repaid; the online form's value is enabling Case 3 residency
    (§4.2.4), not kernel speed. *)

val ablation_order : unit -> (int * float * int) list
(** Per Taylor order: (order, worst exp relative error, exp-kernel DFG
    size) — the user-defined precision trade-off (§3.2.3). *)

(* -- Drivers ---------------------------------------------------------------- *)

val print : string -> unit
(** Print one experiment by id ("fig1", "tab2", ..., "ablations",
    "resilience", "pipeline", "precision"). Raises [Invalid_argument] on
    unknown ids. *)

val ids : string list

val print_all : unit -> unit
(** Every paper reproduction entry.  Opt-in extras ("resilience",
    "pipeline" — the latter has nondeterministic wall times) are only
    reachable through {!print} so this transcript stays stable. *)
