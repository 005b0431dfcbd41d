(** Unified interface over nonlinear-operator evaluation backends.

    A backend bundles the element-wise primitives every Table 1 nonlinear
    operation is built from, at a given arithmetic fidelity.  The nonlinear
    operator library (lib/nonlinear) is written once against this vtable and
    evaluated under: the float64 software reference, the PICACHU algorithm in
    FP16 and INT16 (paper Tables 5/6), and the I-BERT / gemmlowp baselines
    (paper Table 2). *)

type t = {
  name : string;
  format : float array -> float array;
      (** value-level effect of the I/O data format (FP16 rounding, INT
          quantization grid, ...) applied to operator inputs and outputs *)
  exp_shifted : float array -> float array;
      (** [exp (x_i - max_j x_j)] — the softmax numerator *)
  gelu : float array -> float array;
  silu : float array -> float array;
  relu : float array -> float array;
  sin : float -> float;
  cos : float -> float;
  div : float -> float -> float;
  isqrt : float -> float;
}

val exact : t
(** Float64 software reference (exact Phi for GeLU). *)

val fp16_reference : t
(** The paper's "FP16" baseline rows: exact operator mathematics (FP32
    accumulation, as cuBLAS/cuDNN provide) behind FP16 I/O.  An FP16 I/O
    value is the FP32 datapath value stored as FP16:
    [Minifloat.(round fp16 (round32 x))]. *)

val ours_fp : ?order:int -> unit -> t
(** PICACHU algorithm, FP16 I/O, FP32 intermediates, Taylor order [order]
    (default 6), GeLU through the CoT LUT. *)

val ours_int : ?order:int -> unit -> t
(** PICACHU algorithm, dynamic per-tensor INT16 I/O, fixed-point
    intermediates. [order] is accepted for interface symmetry; the fixed
    datapath uses order 6. *)

val nli_fp : unit -> t
(** NLI backend, FP16 I/O, FP32 intermediates: non-uniform error-equalized
    segment tables ({!Nli.standard}) with range-reduced lookups instead of
    Taylor expansions. *)

val nli_int : unit -> t
(** NLI backend over the dynamic per-tensor INT16 I/O grid. *)

val ibert : t
(** I-BERT INT8 baseline. *)

val gemmlowp : t
(** gemmlowp fixed-point baseline (static INT16 grid). *)

val all_backends : t list
(** The seven backends above, in presentation order (exact, the two Taylor
    instances, the two NLI instances, the two baselines). *)

val hybrid : name:string -> base:t -> damaged:t -> only:[ `Softmax | `Activation | `Norm | `Rope ] -> t
(** Attribution tool: [base] everywhere except the chosen operator family,
    which uses [damaged] — isolates how much each nonlinear operation
    contributes to end-to-end accuracy loss. *)

val gelu_tanh_exact : float -> float
(** Reference tanh-form GeLU (Table 1's definition) in float64. *)

val silu_exact : float -> float
