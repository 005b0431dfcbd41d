(* Order statistics over samples, by the library's linearly interpolated
   percentile. *)

let percentile l p =
  match l with
  | [] -> Float.nan
  | _ -> Picachu_tensor.Stats.percentile (Array.of_list l) p

let median l = percentile l 50.0

(* (q1, q3) *)
let quartiles l = (percentile l 25.0, percentile l 75.0)

(* Interquartile distance as a share of the median; 0 for fewer than two
   samples. *)
let spread l =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
      let q1, q3 = quartiles l in
      let m = median l in
      if m = 0.0 then (if q3 = q1 then 0.0 else Float.infinity) else (q3 -. q1) /. Float.abs m
