(** The nonlinear-operation kernel library (paper Table 1).

    Every kernel is authored per {!variant}: the PICACHU forms use the FP2FX
    special unit plus an approximation {!backend} — [Taylor] expands
    operators around reduced ranges (the paper's algorithm, CoT LUT for
    Phi), [Nli] replaces the expansions with single lookups into non-uniform
    error-equalized segment tables ({!Picachu_numerics.Nli}).  The baseline
    form expands the same mathematics with primitive ops only (floor-based
    splits, tanh form of GeLU) — the configuration the homogeneous baseline
    CGRA of §5.3.2 must run.

    Loop structure follows §3.1: element-wise operations are one loop;
    softmax is three loops (max-reduce, exp-and-sum-reduce, divide);
    normalizations are two loops (reduce, normalize), with the inverse
    square root in the inter-loop scalar glue.

    All kernels use the scalar input ["n"] as trip count; RoPE interprets
    ["n"] as the number of rotated pairs and expects its angle stream
    pre-reduced into [-pi/2, pi/2]. *)

type backend = Taylor | Nli
(** Approximation backend for the Picachu kernel forms.  [Taylor]: the
    paper's range-reduced polynomial expansions.  [Nli]: non-uniform linear
    interpolation — one [Op.Lut] per operator into an error-equalized
    segment table ("nli.*" names resolved by
    {!Picachu_numerics.Lut_catalog}). *)

type variant = Picachu of backend | Baseline

val picachu : variant
(** [Picachu Taylor] — the paper's configuration and the default
    everywhere a variant used to be just "Picachu". *)

val picachu_nli : variant
(** [Picachu Nli]. *)

val backend_name : backend -> string
(** ["taylor"] / ["nli"]. *)

val variant_name : variant -> string
(** ["picachu"], ["picachu-nli"], ["baseline"]. *)

val relu : variant -> Kernel.t
val softmax : variant -> Kernel.t
(** Three-loop form (max-reduce, exp-and-sum, divide). *)

val softmax_online : variant -> Kernel.t
(** Single-pass (online) softmax in the FlashAttention style the paper's
    Case 3 relies on (§4.2.4): one fused loop maintains the running maximum
    and the rescaled running sum, and one element-wise loop normalizes.
    Two passes over the data instead of three; the price is two exponentials
    per element in the reduce loop.  Requires inputs above -50 (the running
    maximum is seeded there so that its first correction term flushes to
    zero). *)

val gelu : variant -> Kernel.t
(** LUT form ([x * Phi(x)]) in the Picachu variant; tanh form in Baseline. *)

val silu : variant -> Kernel.t
val swiglu : variant -> Kernel.t
(** Element-wise part; the two linear projections run on the systolic
    array. Streams: ["a"] (gate pre-activation), ["b"]. *)

val geglu : variant -> Kernel.t
val layernorm : variant -> Kernel.t
val rmsnorm : variant -> Kernel.t
val rope : variant -> Kernel.t
(** Streams ["x1"], ["x2"], ["angle"]; outputs ["y1"], ["y2"]. *)

val softcap : ?cap:float -> variant -> Kernel.t
(** Logit soft-capping, [y = c * tanh(x / c)] (Gemma-style) — an operation
    published *after* the accelerators the paper compares against, included
    to exercise the future-operation claim (§3.2.2). tanh expands through
    the exponential decomposition. *)

val relu_squared : variant -> Kernel.t
(** Squared ReLU, [y = max(x,0)^2] (Primer) — same motivation. *)

val extras : variant -> Kernel.t list
(** The future-operation kernels above (not part of [all]; the paper's
    experiment roster stays Table 1). *)

val exp_kernel : ?order:int -> variant -> Kernel.t
(** Element-wise [y = exp x] micro-kernel with a selectable Taylor order —
    the user-defined-precision knob (§3.2.3) used by the order ablation. *)

val all : variant -> Kernel.t list
(** The Table 1 kernels plus the online-softmax variant. *)

val by_name : variant -> string -> Kernel.t
(** Raises [Not_found] for unknown names. *)
