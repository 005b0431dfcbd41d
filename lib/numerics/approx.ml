type t = {
  name : string;
  format : float array -> float array;
  exp_shifted : float array -> float array;
  gelu : float array -> float array;
  silu : float array -> float array;
  relu : float array -> float array;
  sin : float -> float;
  cos : float -> float;
  div : float -> float -> float;
  isqrt : float -> float;
}

let max_of xs = Array.fold_left Float.max neg_infinity xs

let gelu_tanh_exact x =
  let c = sqrt (2.0 /. Float.pi) in
  0.5 *. x *. (1.0 +. Stdlib.tanh (c *. (x +. (0.044715 *. x *. x *. x))))

let silu_exact x = x /. (1.0 +. Stdlib.exp (-.x))
let relu_v xs = Array.map (fun x -> Float.max 0.0 x) xs

let exact =
  {
    name = "fp64-exact";
    format = (fun xs -> xs);
    exp_shifted =
      (fun xs ->
        let m = max_of xs in
        Array.map (fun x -> Stdlib.exp (x -. m)) xs);
    gelu = (fun xs -> Array.map (fun x -> x *. Lut.gauss_cdf_exact x) xs);
    silu = (fun xs -> Array.map silu_exact xs);
    relu = relu_v;
    sin = Stdlib.sin;
    cos = Stdlib.cos;
    div = ( /. );
    isqrt = (fun x -> 1.0 /. sqrt x);
  }

(* an FP32 datapath value stored as FP16 *)
let fp16_format xs = Array.map (fun x -> Minifloat.(round fp16 (round32 x))) xs

let fp16_reference =
  {
    exact with
    name = "fp16";
    format = fp16_format;
    exp_shifted =
      (fun xs ->
        let xs = fp16_format xs in
        let m = max_of xs in
        Array.map (fun x -> Minifloat.round32 (Stdlib.exp (x -. m))) xs);
    gelu =
      (fun xs ->
        Array.map (fun x -> Minifloat.round32 (x *. Lut.gauss_cdf_exact x)) (fp16_format xs));
    silu = (fun xs -> Array.map (fun x -> Minifloat.round32 (silu_exact x)) (fp16_format xs));
    relu = (fun xs -> relu_v (fp16_format xs));
    div = (fun a b -> Minifloat.round32 (a /. b));
  }

let int16_format xs =
  let absmax = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 xs in
  let scale = Quant.scale_for ~bits:16 ~absmax in
  Array.map
    (fun x -> float_of_int (Quant.quantize_value ~bits:16 ~scale x) *. scale)
    xs

let int8_format xs =
  (* I-BERT's statically calibrated INT8 activation grid *)
  let scale = Quant.scale_for ~bits:8 ~absmax:Ibert.calibrated_absmax in
  Array.map
    (fun x -> float_of_int (Quant.quantize_value ~bits:8 ~scale x) *. scale)
    xs

(* ----------------------------------------------- pluggable PICACHU prims *)

(* The shared backend signature: one scalar primitive per Table 1 building
   block, at the backend's fidelity (rounding included — the FP instances
   round products through FP32, the INT instances ride the quantized grid).
   [of_prims] supplies the vector plumbing every instance shares: apply the
   I/O format, shift the softmax numerator by the running maximum, map. *)
type prims = {
  p_name : string;
  p_format : float array -> float array;
  p_exp_shifted : float -> float;  (** [exp d] for a max-shifted [d <= 0] *)
  p_gelu : float -> float;  (** on an already-formatted input *)
  p_silu : float -> float;
  p_sin : float -> float;
  p_cos : float -> float;
  p_div : float -> float -> float;
  p_isqrt : float -> float;
}

let of_prims p =
  {
    name = p.p_name;
    format = p.p_format;
    exp_shifted =
      (fun xs ->
        let xs = p.p_format xs in
        let m = max_of xs in
        Array.map (fun x -> p.p_exp_shifted (x -. m)) xs);
    gelu = (fun xs -> Array.map p.p_gelu (p.p_format xs));
    silu = (fun xs -> Array.map p.p_silu (p.p_format xs));
    relu = (fun xs -> relu_v (p.p_format xs));
    sin = p.p_sin;
    cos = p.p_cos;
    div = p.p_div;
    isqrt = p.p_isqrt;
  }

let taylor_fp_prims ?(order = 6) () =
  let cfg = { Taylor.order } in
  let lut = Lazy.force Lut.gauss_cdf in
  {
    p_name = Printf.sprintf "ours-fp16(order %d)" order;
    p_format = fp16_format;
    p_exp_shifted = Taylor.exp ~cfg;
    p_gelu = (fun x -> Minifloat.round32 (x *. Lut.eval lut x));
    p_silu = (fun x -> Minifloat.round32 (x *. Taylor.sigmoid ~cfg x));
    p_sin = Taylor.sin ~cfg;
    p_cos = Taylor.cos ~cfg;
    p_div = Taylor.div;
    p_isqrt = (fun x -> Taylor.isqrt x);
  }

let taylor_int_prims () =
  let lut = Lazy.force Lut.gauss_cdf in
  {
    p_name = "ours-int16";
    p_format = int16_format;
    p_exp_shifted = Int_ops.exp;
    p_gelu = (fun x -> x *. Lut.eval lut x);
    p_silu = (fun x -> x *. Int_ops.sigmoid x);
    p_sin = Int_ops.sin;
    p_cos = Int_ops.cos;
    p_div = Int_ops.div;
    p_isqrt = Int_ops.isqrt;
  }

let nli_fp_prims () =
  {
    p_name = "nli-fp16";
    p_format = fp16_format;
    p_exp_shifted = (fun d -> Minifloat.round32 (Nli.exp_neg d));
    p_gelu = (fun x -> Minifloat.round32 (Nli.gelu x));
    p_silu = (fun x -> Minifloat.round32 (Nli.silu x));
    p_sin = (fun x -> Minifloat.round32 (Nli.sin x));
    p_cos = (fun x -> Minifloat.round32 (Nli.cos x));
    p_div = (fun a b -> Minifloat.round32 (Nli.div a b));
    p_isqrt = (fun x -> Minifloat.round32 (Nli.isqrt x));
  }

let nli_int_prims () =
  {
    p_name = "nli-int16";
    p_format = int16_format;
    p_exp_shifted = Nli.exp_neg;
    p_gelu = Nli.gelu;
    p_silu = Nli.silu;
    p_sin = Nli.sin;
    p_cos = Nli.cos;
    p_div = Nli.div;
    p_isqrt = Nli.isqrt;
  }

let ours_fp ?(order = 6) () = of_prims (taylor_fp_prims ~order ())
let ours_int ?order:(_ = 6) () = of_prims (taylor_int_prims ())
let nli_fp () = of_prims (nli_fp_prims ())
let nli_int () = of_prims (nli_int_prims ())

let ibert =
  {
    name = "i-bert(int8)";
    format = int8_format;
    exp_shifted = Ibert.exp_v;
    gelu = Ibert.gelu_v;
    silu =
      (fun xs ->
        (* SiLU has no I-BERT kernel; port via x * i-sigmoid(x), both on the
           INT8 grid — the porting choice the paper's Table 2 evaluates *)
        let s = Ibert.sigmoid_v xs in
        Array.mapi (fun i x -> let q = int8_format [| x |] in q.(0) *. s.(i)) xs);
    relu = (fun xs -> relu_v (int8_format xs));
    sin = (fun x -> (int8_format [| Stdlib.sin x |]).(0));
    cos = (fun x -> (int8_format [| Stdlib.cos x |]).(0));
    div = ( /. );
    isqrt = Ibert.isqrt_scalar;
  }

let gemmlowp =
  {
    name = "gemmlowp(fixed)";
    format = Gemmlowp.(fun xs ->
        Array.map (fun x -> Float.max (-.static_range) (Float.min static_range x)) xs);
    exp_shifted = Gemmlowp.exp_v;
    gelu = Gemmlowp.gelu_v;
    silu =
      (fun xs ->
        let s = Gemmlowp.sigmoid_v xs in
        Array.mapi (fun i x -> x *. s.(i)) xs);
    relu = relu_v;
    sin = (fun x -> Fixed_point.round Fixed_point.q15 (Stdlib.sin x));
    cos = (fun x -> Fixed_point.round Fixed_point.q15 (Stdlib.cos x));
    div = ( /. );
    isqrt = (fun x -> Fixed_point.round (Fixed_point.fmt ~total_bits:32 ~frac_bits:16) (1.0 /. sqrt x));
  }

let all_backends =
  [ exact; ours_fp (); ours_int (); nli_fp (); nli_int (); ibert; gemmlowp ]

let hybrid ~name ~base ~damaged ~only =
  match only with
  | `Softmax -> { base with name; exp_shifted = damaged.exp_shifted; div = damaged.div }
  | `Activation ->
      { base with name; gelu = damaged.gelu; silu = damaged.silu; relu = damaged.relu }
  | `Norm -> { base with name; isqrt = damaged.isqrt; format = damaged.format }
  | `Rope -> { base with name; sin = damaged.sin; cos = damaged.cos }
