(* The serving vocabulary: batching policies, seeded arrival streams, cost
   sources, and per-request results.  {!Cluster} simulates over these
   types and {!Scheduler} re-exports them under its own name, so they are
   defined exactly once. *)

module Rng = Picachu_tensor.Rng
module Stats = Picachu_tensor.Stats
module Mz = Picachu_llm.Model_zoo

type policy = Static of int | Continuous

let policy_name = function
  | Static b -> Printf.sprintf "static=%d" b
  | Continuous -> "continuous"

(* ------------------------------------------------------- arrival streams *)

type trace_spec = {
  rps : float;
  requests : int;
  prompt_buckets : int array;
  generate_buckets : int array;
  seed : int;
}

let default_trace ?(seed = 1) ~rps ~requests () =
  {
    rps;
    requests;
    prompt_buckets = [| 64; 128; 256; 512 |];
    generate_buckets = [| 16; 32; 64 |];
    seed;
  }

type arrival = { id : int; at : float; request : Serving.request }

(* errors name [Scheduler.trace], the public entry that re-exports this *)
let trace spec =
  if not (spec.rps > 0.0) then invalid_arg "Scheduler.trace: rps must be positive";
  if spec.rps = Float.infinity then invalid_arg "Scheduler.trace: rps must be finite";
  if spec.requests < 1 then invalid_arg "Scheduler.trace: requests must be positive";
  if Array.length spec.prompt_buckets = 0 || Array.length spec.generate_buckets = 0
  then invalid_arg "Scheduler.trace: empty bucket set";
  Array.iter
    (fun b -> if b < 1 then invalid_arg "Scheduler.trace: non-positive bucket")
    spec.prompt_buckets;
  Array.iter
    (fun b -> if b < 1 then invalid_arg "Scheduler.trace: non-positive bucket")
    spec.generate_buckets;
  let rng = Rng.create spec.seed in
  let t = ref 0.0 in
  List.init spec.requests (fun id ->
      (* Poisson arrivals: exponential inter-arrival times at rate rps *)
      t := !t +. (-.log (1.0 -. Rng.float rng) /. spec.rps);
      let pick a = a.(Rng.int rng (Array.length a)) in
      {
        id;
        at = !t;
        request =
          { Serving.prompt = pick spec.prompt_buckets; generate = pick spec.generate_buckets };
      })

(* ---------------------------------------------------------- cost sources *)

type cost_source = Serving.request -> Serving.phase_costs * Serving.tier

let robust_source ?budget ?gpu cfg m : cost_source =
  (* the trace draws prompt/generate from buckets, so requests repeat; one
     tier-ladder evaluation per distinct (prompt, generate) — and the kernel
     compiles underneath are shared across buckets anyway through the
     content-addressed compile cache *)
  let memo = Hashtbl.create 16 in
  fun (r : Serving.request) ->
    let key = (r.Serving.prompt, r.Serving.generate) in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
        let rb = Serving.robust_costs ?budget ?gpu cfg m r in
        let v = (rb.Serving.r_costs, rb.Serving.served_by) in
        Hashtbl.add memo key v;
        v

(* -------------------------------------------------------------- metrics *)

type completion = {
  c_id : int;
  c_request : Serving.request;
  c_arrival_s : float;
  c_ttft_s : float;
  c_latency_s : float;
  c_tpot_s : float;
  c_tier : Serving.tier;
}

type pct = { p50 : float; p95 : float; p99 : float }

let percentiles f completions =
  match completions with
  | [] -> { p50 = 0.0; p95 = 0.0; p99 = 0.0 }
  | _ ->
      let xs = Array.of_list (List.map f completions) in
      Array.sort Float.compare xs;
      let len = Array.length xs in
      {
        p50 = Stats.percentile_sorted xs ~len 50.0;
        p95 = Stats.percentile_sorted xs ~len 95.0;
        p99 = Stats.percentile_sorted xs ~len 99.0;
      }

let tier_tally completions =
  List.filter_map
    (fun t ->
      match List.length (List.filter (fun c -> c.c_tier = t) completions) with
      | 0 -> None
      | k -> Some (t, k))
    [ Serving.Fused; Serving.Baseline_cgra; Serving.Roofline ]
