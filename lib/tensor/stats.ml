type error_report = {
  max_abs : float;
  max_rel : float;
  rmse : float;
  mean_abs : float;
}

let report_of_pairs pairs =
  let n = Array.length pairs in
  if n = 0 then invalid_arg "Stats: empty sample";
  let max_abs = ref 0.0 and max_rel = ref 0.0 and sq = ref 0.0 and ab = ref 0.0 in
  Array.iter
    (fun (r, c) ->
      let e = abs_float (r -. c) in
      let rel = e /. Float.max 1e-12 (abs_float r) in
      if e > !max_abs then max_abs := e;
      if rel > !max_rel then max_rel := rel;
      sq := !sq +. (e *. e);
      ab := !ab +. e)
    pairs;
  let nf = float_of_int n in
  { max_abs = !max_abs; max_rel = !max_rel; rmse = sqrt (!sq /. nf); mean_abs = !ab /. nf }

let compare_tensors ~reference ~candidate =
  if Tensor.shape reference <> Tensor.shape candidate then
    invalid_arg "Stats.compare_tensors: shape mismatch";
  report_of_pairs
    (Array.init (Tensor.numel reference) (fun i ->
         (Tensor.get reference i, Tensor.get candidate i)))

let compare_fn ?(n = 1024) ~lo ~hi ~reference ~candidate () =
  if n < 2 then invalid_arg "Stats.compare_fn: n < 2";
  let step = (hi -. lo) /. float_of_int (n - 1) in
  report_of_pairs
    (Array.init n (fun i ->
         let x = lo +. (float_of_int i *. step) in
         (reference x, candidate x)))

let pp_error fmt r =
  Format.fprintf fmt "max_abs=%.3e max_rel=%.3e rmse=%.3e mean_abs=%.3e" r.max_abs
    r.max_rel r.rmse r.mean_abs

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: empty"
  | _ ->
      let acc =
        List.fold_left
          (fun acc x ->
            if x <= 0.0 then invalid_arg "Stats.geomean: non-positive element";
            acc +. log x)
          0.0 xs
      in
      exp (acc /. float_of_int (List.length xs))

let percentile_sorted sorted ~len p =
  if len < 1 || len > Array.length sorted then
    invalid_arg "Stats.percentile_sorted: len outside [1, length]";
  if not (p >= 0.0 && p <= 100.0) then invalid_arg "Stats.percentile: p out of range";
  let pos = p /. 100.0 *. float_of_int (len - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = Stdlib.min (len - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  percentile_sorted sorted ~len:n p
