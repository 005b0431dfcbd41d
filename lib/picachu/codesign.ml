module Arch = Picachu_cgra.Arch
module Fu = Picachu_cgra.Fu
module Mapper = Picachu_cgra.Mapper
module Kernels = Picachu_ir.Kernels
module Rng = Picachu_tensor.Rng
module Parallel = Picachu_parallel.Parallel

type objective = Perf_per_area | Throughput_under_cap of float

type config = {
  iters : int;
  batch : int;
  seed : int;
  backend : Kernels.backend;
  objective : objective;
  init : Arch.t option;
}

let default_config =
  {
    iters = 64;
    batch = 4;
    seed = 1;
    backend = Kernels.Taylor;
    objective = Perf_per_area;
    init = None;
  }

type trace_entry = {
  step : int;
  move : string;
  arch_name : string;
  score : float option;
  accepted : bool;
  best_score : float;
}

type result = {
  config : config;
  init_point : Explore.point;
  best : Explore.point;
  best_arch : Arch.t;
  evaluated : int;
  accepted_count : int;
  infeasible : int;
  trace : trace_entry list;
}

let score objective (p : Explore.point) =
  match objective with
  | Perf_per_area -> Some p.Explore.perf_per_area
  | Throughput_under_cap cap ->
      if p.Explore.area_mm2 <= cap then Some p.Explore.geomean_throughput
      else None

(* ---- the move set ------------------------------------------------------ *)

let min_rows = 2
let max_rows = 6
let min_cols = 2
let max_cols = 8
let min_lut = 1024
let max_lut = 32768

let is_corner (a : Arch.t) i =
  let r, c = Arch.coords a i in
  (r = 0 || r = a.Arch.rows - 1) && (c = 0 || c = a.Arch.cols - 1)

let noncorner_indices (a : Arch.t) =
  Array.of_seq
    (Seq.filter
       (fun i -> not (is_corner a i))
       (Seq.init (Array.length a.Arch.kinds) Fun.id))

let share_of (a : Arch.t) =
  let nc = noncorner_indices a in
  if Array.length nc = 0 then 0.0
  else
    let cot =
      Array.fold_left
        (fun n i ->
          match a.Arch.kinds.(i) with
          | Fu.CoT | Fu.UniT -> n + 1
          | Fu.BaT | Fu.BrT -> n)
        0 nc
    in
    float_of_int cot /. float_of_int (Array.length nc)

(* candidate names carry every searched knob so the trace reads as a path
   through the design space; structural digests (which ignore the name) are
   what dedupe and the compile cache key on *)
let rename (a : Arch.t) =
  let cot =
    Array.fold_left
      (fun n k -> match k with Fu.CoT | Fu.UniT -> n + 1 | Fu.BaT | Fu.BrT -> n)
      0 a.Arch.kinds
  in
  {
    a with
    Arch.name =
      Printf.sprintf "sa-%dx%d-cot%d-lut%d" a.Arch.rows a.Arch.cols cot
        a.Arch.lut_capacity_bytes;
  }

let resized ~rows ~cols (a : Arch.t) =
  Arch.hetero_mix ~rows ~cols ~cot_share:(share_of a)
  |> Arch.with_lut_capacity a.Arch.lut_capacity_bytes
  |> rename

let flipped rng (a : Arch.t) =
  let nc = noncorner_indices a in
  if Array.length nc = 0 then a
  else begin
    let i = nc.(Rng.int rng (Array.length nc)) in
    let ks = Array.copy a.Arch.kinds in
    ks.(i) <-
      (match ks.(i) with
      | Fu.CoT | Fu.UniT -> Fu.BaT
      | Fu.BaT | Fu.BrT -> Fu.CoT);
    rename { a with Arch.kinds = ks }
  end

let reinterleaved rng (a : Arch.t) =
  let dir = if Rng.bool rng then 1.0 else -1.0 in
  let mag = Rng.uniform rng ~lo:0.08 ~hi:0.25 in
  let share = Float.max 0.0 (Float.min 1.0 (share_of a +. (dir *. mag))) in
  let label = if dir > 0.0 then "share+" else "share-" in
  ( label,
    Arch.hetero_mix ~rows:a.Arch.rows ~cols:a.Arch.cols ~cot_share:share
    |> Arch.with_lut_capacity a.Arch.lut_capacity_bytes
    |> rename )

let relut cap (a : Arch.t) =
  Arch.with_lut_capacity (Stdlib.max min_lut (Stdlib.min max_lut cap)) a
  |> rename

(* single-knob neighbor; re-drawn (bounded) when a clamped move lands on the
   current design, so steps at the boundary of the space stay productive *)
let neighbor rng (a : Arch.t) =
  let attempt () =
    let r = Rng.int rng 100 in
    if r < 30 then ("flip", flipped rng a)
    else if r < 45 then reinterleaved rng a
    else if r < 70 then begin
      match Rng.int rng 4 with
      | 0 ->
          ( "rows+1",
            resized ~rows:(Stdlib.min max_rows (a.Arch.rows + 1)) ~cols:a.Arch.cols a )
      | 1 ->
          ( "rows-1",
            resized ~rows:(Stdlib.max min_rows (a.Arch.rows - 1)) ~cols:a.Arch.cols a )
      | 2 ->
          ( "cols+1",
            resized ~rows:a.Arch.rows ~cols:(Stdlib.min max_cols (a.Arch.cols + 1)) a )
      | _ ->
          ( "cols-1",
            resized ~rows:a.Arch.rows ~cols:(Stdlib.max min_cols (a.Arch.cols - 1)) a )
    end
    else if Rng.bool rng then
      ("lut/2", relut (a.Arch.lut_capacity_bytes / 2) a)
    else ("lutx2", relut (a.Arch.lut_capacity_bytes * 2) a)
  in
  let cur = Arch.structural_digest a in
  let rec go n =
    let mv, a' = attempt () in
    if n >= 8 || Arch.structural_digest a' <> cur then (mv, a') else go (n + 1)
  in
  go 1

(* ---- the annealer ------------------------------------------------------ *)

let run ?(config = default_config) () =
  let cfg = config in
  if cfg.iters <= 0 then invalid_arg "Codesign.run: iters must be > 0";
  if cfg.batch <= 0 then invalid_arg "Codesign.run: batch must be > 0";
  let rng = Rng.create cfg.seed in
  let init_arch =
    match cfg.init with
    | Some a -> a
    | None -> Arch.hetero_mix ~rows:4 ~cols:4 ~cot_share:(2.0 /. 3.0)
  in
  let init_point = Explore.evaluate_arch ~backend:cfg.backend init_arch in
  let cur_arch = ref init_arch in
  let cur_score =
    ref
      (match score cfg.objective init_point with
      | Some s -> s
      | None -> Float.neg_infinity)
  in
  let best_arch = ref init_arch in
  let best_point = ref init_point in
  let best_score = ref !cur_score in
  let t0 =
    0.10
    *. (if Float.is_finite !cur_score && !cur_score <> 0.0 then
          Float.abs !cur_score
        else 1.0)
  in
  let temperature step =
    (* geometric cooling to 2% of t0 over the budget *)
    t0 *. (0.02 ** (float_of_int step /. float_of_int (Stdlib.max 1 (cfg.iters - 1))))
  in
  let trace = ref [] in
  let evaluated = ref 0 in
  let accepted_count = ref 0 in
  let infeasible = ref 0 in
  let step = ref 0 in
  while !step < cfg.iters do
    let n = Stdlib.min cfg.batch (cfg.iters - !step) in
    (* moves draw sequentially from the current state ... *)
    let cands = Array.init n (fun _ -> neighbor rng !cur_arch) in
    (* ... the batch evaluates concurrently ... *)
    let points =
      Parallel.parallel_map_array
        (fun i ->
          let _, a = cands.(i) in
          match Explore.evaluate_arch ~backend:cfg.backend a with
          | p -> Some p
          | exception (Mapper.Unmappable _ | Picachu_error.Error _) -> None)
        (Array.init n Fun.id)
    in
    (* ... and acceptance folds sequentially in batch order *)
    Array.iteri
      (fun i popt ->
        let t = temperature !step in
        incr step;
        incr evaluated;
        let mv, a = cands.(i) in
        (* one Metropolis draw per candidate, needed or not, so the random
           stream is a function of the step count alone *)
        let u = Rng.float rng in
        let sc = Option.bind popt (score cfg.objective) in
        if sc = None then incr infeasible;
        let accept =
          match sc with
          | None -> false
          | Some s -> s > !cur_score || exp ((s -. !cur_score) /. t) > u
        in
        if accept then begin
          incr accepted_count;
          cur_arch := a;
          cur_score := Option.get sc
        end;
        (match (sc, popt) with
        | Some s, Some p when s > !best_score ->
            best_score := s;
            best_point := p;
            best_arch := a
        | _ -> ());
        trace :=
          {
            step = !step;
            move = mv;
            arch_name = a.Arch.name;
            score = sc;
            accepted = accept;
            best_score = !best_score;
          }
          :: !trace)
      points
  done;
  {
    config = cfg;
    init_point;
    best = !best_point;
    best_arch = !best_arch;
    evaluated = !evaluated;
    accepted_count = !accepted_count;
    infeasible = !infeasible;
    trace = List.rev !trace;
  }
