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

let all = [ Softmax; Relu; Gelu; Geglu; Swiglu; Silu; Layernorm; Rmsnorm; Rope ]

let name = function
  | Softmax -> "softmax"
  | Relu -> "relu"
  | Gelu -> "gelu"
  | Geglu -> "geglu"
  | Swiglu -> "swiglu"
  | Silu -> "silu"
  | Layernorm -> "layernorm"
  | Rmsnorm -> "rmsnorm"
  | Rope -> "rope"

let of_name_opt s = List.find_opt (fun k -> name k = s) all

let of_name s =
  match of_name_opt s with
  | Some k -> k
  | None -> invalid_arg ("Registry.of_name: " ^ s)

let klass = function
  | Softmax | Layernorm | Rmsnorm -> Kernel.RE
  | Relu | Gelu | Geglu | Swiglu | Silu | Rope -> Kernel.EO

let kernel variant k = Kernels.by_name variant (name k)

let streams_per_element = function
  | Softmax -> 2 (* read x, write y; the intermediate e stays on chip *)
  | Relu | Gelu | Silu -> 2
  | Geglu | Swiglu -> 3 (* two inputs, one output *)
  | Layernorm | Rmsnorm -> 2
  | Rope -> 3 (* x1+x2+angle in, y1+y2 out, per element pair ~ 5/2; round up *)

let mathematical_operators = function
  | Softmax -> [ "division"; "exponential" ]
  | Relu -> [ "maximum" ]
  | Gelu | Geglu | Swiglu | Silu -> [ "division"; "exponential" ]
  | Layernorm | Rmsnorm -> [ "inverted square root" ]
  | Rope -> [ "sine"; "cosine" ]
