(** Symmetric integer quantization.

    A quantized tensor is a pair of an integer array and a single scale:
    [x ~ scale * q] with [q] saturated to the signed range of [bits].  This is
    the representation the INT16/INT32 paths of the PICACHU algorithm operate
    on (paper §4.1), and also what the I-BERT baseline assumes. *)

module Tensor = Picachu_tensor.Tensor

type qtensor = { q : int array; scale : float; bits : int }

val scale_for : bits:int -> absmax:float -> float
(** The scale mapping [absmax] to the top of the signed [bits]-bit range. *)

val quantize : bits:int -> Tensor.t -> qtensor
(** Per-tensor symmetric quantization using the tensor's own absmax (a zero
    tensor quantizes with scale 1). *)

val dequantize : qtensor -> Tensor.t
val saturating_cast : bits:int -> int -> int
val quantize_value : bits:int -> scale:float -> float -> int
val roundtrip : bits:int -> Tensor.t -> Tensor.t
(** [dequantize (quantize t)] — the value-level effect of the format. *)

val requantize : qtensor -> new_scale:float -> qtensor
(** Rescale the integer representation to a new scale (rounding). *)
