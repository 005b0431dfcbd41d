module Tensor = Picachu_tensor.Tensor

type qtensor = { q : int array; scale : float; bits : int }

let qmax bits = (1 lsl (bits - 1)) - 1

let scale_for ~bits ~absmax =
  if absmax <= 0.0 then 1.0 else absmax /. float_of_int (qmax bits)

let saturating_cast ~bits v =
  let hi = qmax bits and lo = -(1 lsl (bits - 1)) in
  if v > hi then hi else if v < lo then lo else v

let quantize_value ~bits ~scale x =
  saturating_cast ~bits (int_of_float (Float.round (x /. scale)))

let quantize ~bits t =
  let absmax = Tensor.fold (fun acc x -> Float.max acc (abs_float x)) 0.0 t in
  let scale = scale_for ~bits ~absmax in
  let q = Array.init (Tensor.numel t) (fun i -> quantize_value ~bits ~scale (Tensor.get t i)) in
  { q; scale; bits }

let dequantize { q; scale; _ } =
  Tensor.init [ Array.length q ] (fun i -> scale *. float_of_int q.(i))

let roundtrip ~bits t =
  let qt = quantize ~bits t in
  Tensor.reshape (dequantize qt) (Tensor.shape t)

let requantize qt ~new_scale =
  let ratio = qt.scale /. new_scale in
  let q =
    Array.map
      (fun v -> saturating_cast ~bits:qt.bits
          (int_of_float (Float.round (float_of_int v *. ratio))))
      qt.q
  in
  { qt with q; scale = new_scale }
