(** Catalogue of the supported nonlinear operations (paper Table 1), tying
    together their tensor-level evaluators, their CGRA kernels, and the
    metadata the workload model and the compiler need. *)

module Kernel = Picachu_ir.Kernel
module Kernels = Picachu_ir.Kernels

type opkind =
  | Softmax
  | Relu
  | Gelu
  | Geglu
  | Swiglu
  | Silu
  | Layernorm
  | Rmsnorm
  | Rope

val all : opkind list
val name : opkind -> string
val of_name : string -> opkind
(** Raises [Invalid_argument] on unknown names. *)

val of_name_opt : string -> opkind option
(** Total lookup for user-facing boundaries (CLI arguments, experiment
    rosters): [None] instead of an exception on unknown names. *)

val klass : opkind -> Kernel.klass
(** EO or RE (Table 1's black/blue split). *)

val kernel : Kernels.variant -> opkind -> Kernel.t
val streams_per_element : opkind -> int
(** Input+output stream elements touched per logical element (e.g. RoPE
    reads x1, x2, angle and writes y1, y2 -> 5/2 per rotated value); used for
    DMA sizing. *)

val mathematical_operators : opkind -> string list
(** Table 1's "Mathematical Operator" column. *)
