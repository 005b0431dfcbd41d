module Workload = Picachu_llm.Workload
module Mz = Picachu_llm.Model_zoo
module Gpu = Picachu_llm.Gpu_model
module Arch = Picachu_cgra.Arch
module Kernels = Picachu_ir.Kernels

type request = { prompt : int; generate : int }

type phase_costs = {
  prefill_s : float;
  decode_s_at : (int * float) list;
}

type summary = { ttft_s : float; total_s : float; tokens_per_s : float }

let anchor_lengths (r : request) =
  let last = r.prompt + r.generate in
  List.sort_uniq Int.compare [ r.prompt; (r.prompt + last) / 2; last ]

let picachu_costs cfg m (r : request) =
  let prefill =
    Simulator.seconds cfg (Simulator.run cfg (Workload.of_model m ~seq:r.prompt))
  in
  let decode_at ctx =
    Simulator.seconds cfg (Simulator.run cfg (Workload.decode_of_model m ~context:ctx))
  in
  { prefill_s = prefill; decode_s_at = List.map (fun c -> (c, decode_at c)) (anchor_lengths r) }

let gpu_costs gpu m (r : request) =
  let prefill = (Gpu.run gpu (Workload.of_model m ~seq:r.prompt)).Gpu.total_s in
  let decode_at ctx = (Gpu.run gpu (Workload.decode_of_model m ~context:ctx)).Gpu.total_s in
  { prefill_s = prefill; decode_s_at = List.map (fun c -> (c, decode_at c)) (anchor_lengths r) }

let decode_cost costs ctx =
  match costs.decode_s_at with
  | [] -> invalid_arg "Serving: no decode anchors"
  | ((c0, s0) :: _) as anchors ->
      if ctx <= c0 then s0
      else
        let rec go = function
          | [ (_, s) ] -> s
          | (c1, s1) :: ((c2, s2) :: _ as rest) ->
              if ctx <= c2 then
                s1
                +. ((s2 -. s1) *. float_of_int (ctx - c1)
                    /. float_of_int (Stdlib.max 1 (c2 - c1)))
              else go rest
          | [] -> assert false
        in
        go anchors

let summarize costs (r : request) =
  if r.prompt < 1 || r.generate < 1 then invalid_arg "Serving.summarize: request";
  let decode_total = ref 0.0 in
  for step = 0 to r.generate - 1 do
    decode_total := !decode_total +. decode_cost costs (r.prompt + step)
  done;
  {
    ttft_s = costs.prefill_s;
    total_s = costs.prefill_s +. !decode_total;
    tokens_per_s = float_of_int r.generate /. !decode_total;
  }

(* ------------------------------------------------- graceful degradation *)

type tier = Fused | Baseline_cgra | Roofline

let tier_name = function
  | Fused -> "fused"
  | Baseline_cgra -> "baseline-cgra"
  | Roofline -> "roofline"

type failure = { failed_tier : tier; error : Picachu_error.t; attempts : int }

type robust = {
  r_costs : phase_costs;
  r_summary : summary;
  served_by : tier;
  fallbacks : failure list;
  retries : int;
}

let robust_costs_with ?(budget = 1) tiers (r : request) =
  (* transient errors (a detected execution fault) are retried within the
     tier up to [budget] extra attempts; structural errors (unmappable,
     unknown kernel) are deterministic, so the request drops straight to
     the next tier *)
  let attempt_tier f =
    let rec go attempt =
      match f r with
      | costs -> Ok (costs, attempt)
      | exception e -> (
          match Picachu_error.of_exn e with
          | None -> raise e
          | Some err ->
              if Picachu_error.transient err && attempt < budget then go (attempt + 1)
              else Error (err, attempt))
    in
    go 0
  in
  let rec serve fallbacks retries = function
    | [] ->
        raise
          (Picachu_error.Error
             (Picachu_error.All_tiers_failed
                (List.rev_map
                   (fun f -> (tier_name f.failed_tier, f.error))
                   fallbacks)))
    | (tier, f) :: rest -> (
        match attempt_tier f with
        | Ok (costs, attempts) ->
            {
              r_costs = costs;
              r_summary = summarize costs r;
              served_by = tier;
              fallbacks = List.rev fallbacks;
              retries = retries + attempts;
            }
        | Error (error, attempts) ->
            serve
              ({ failed_tier = tier; error; attempts } :: fallbacks)
              (retries + attempts) rest)
  in
  serve [] 0 tiers

let robust_costs ?budget ?(gpu = Gpu.a100) cfg m (r : request) =
  let baseline_cfg =
    {
      cfg with
      Simulator.arch = Arch.baseline ();
      variant = Kernels.Baseline;
      vector = 1;
    }
  in
  robust_costs_with ?budget
    [
      (Fused, fun r -> picachu_costs cfg m r);
      (Baseline_cgra, fun r -> picachu_costs baseline_cfg m r);
      (Roofline, fun r -> gpu_costs gpu m r);
    ]
    r
