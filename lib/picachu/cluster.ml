(* Multi-replica LLM serving as a deterministic discrete-event simulation:
   the one serving engine (Scheduler.run is its 1-replica, fault-free,
   defense-free case).

   The step model, per replica: one step emits one decode token for every
   live request, and the slowest member gates the step.  Under
   [Continuous], freed slots refill at step boundaries and a joiner's
   prefill overlaps the step it joins.  Under [Static b], an idle replica
   takes [b] queued requests (or what is left once no more will arrive),
   prefills them together, and decodes until the whole batch drains.  A
   front-end router dispatches arrivals to replicas and defends against
   replica failures with per-request timeouts, bounded retries, hedged
   requests, per-replica circuit breakers, and health-check-driven
   ejection.

   Event order: a Step event at boundary time T first finishes the step
   that ends at T (increment al_done on the live set, stamp joiners' TTFT,
   live <- continuing @ joiners, complete finished members), then begins
   the next step (pop joiners, fold the step duration with one Float.max
   chain, schedule the next boundary at T +. dur).  Arrivals are not heap
   events: a cursor over the sorted trace is merged with the heap, and the
   next arrival is taken whenever its time is <= the heap's top time, so
   an arrival at exactly a boundary queues before that boundary pops.
   Every arrival sharing one instant queues before any idle replica is
   kicked — admit before pop, so ties shed load against the full queue.

   Determinism: every stream is seeded (arrival trace, per-replica failure
   renewal processes, front-end jitter), the event queue breaks time ties
   on push order, and all arithmetic is sequential — traces are
   bit-identical across PICACHU_DOMAINS pool sizes and repeat runs. *)

module Rng = Picachu_tensor.Rng
module Mz = Picachu_llm.Model_zoo
module E = Picachu_error

(* ---------------------------------------------------------------- router *)

type router = Round_robin | Least_loaded | Power_of_two

let router_name = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Power_of_two -> "p2c"

let router_of_string s =
  match String.lowercase_ascii s with
  | "round-robin" | "rr" -> Some Round_robin
  | "least-loaded" | "ll" -> Some Least_loaded
  | "p2c" | "power-of-two" | "power-of-two-choices" -> Some Power_of_two
  | _ -> None

(* ---------------------------------------------------------- failure model *)

type fault_profile = {
  fp_seed : int;
  mttf_s : float;  (* mean time to failure; infinity disables faults *)
  mttr_s : float;  (* mean time to recovery *)
  p_crash : float;  (* mode mix, normalized over the three weights *)
  p_hang : float;
  p_slow : float;
  hang_factor : float;  (* step-duration multiplier while hung *)
  slow_factor : float;  (* step-duration multiplier while slowed *)
}

let profile_none =
  {
    fp_seed = 0;
    mttf_s = Float.infinity;
    mttr_s = 1.0;
    p_crash = 0.0;
    p_hang = 0.0;
    p_slow = 0.0;
    hang_factor = 8.0;
    slow_factor = 1.5;
  }

let profile_crash ?(seed = 0) ~mttf ~mttr () =
  { profile_none with fp_seed = seed; mttf_s = mttf; mttr_s = mttr; p_crash = 1.0 }

let profile_straggler ?(seed = 0) ~mttf ~mttr () =
  { profile_none with fp_seed = seed; mttf_s = mttf; mttr_s = mttr; p_hang = 1.0 }

let profile_mixed ?(seed = 0) ~mttf ~mttr () =
  {
    profile_none with
    fp_seed = seed;
    mttf_s = mttf;
    mttr_s = mttr;
    p_crash = 0.5;
    p_hang = 0.3;
    p_slow = 0.2;
  }

let profile_active p = p.mttf_s < Float.infinity && p.p_crash +. p.p_hang +. p.p_slow > 0.0

let profile_of_string ?(seed = 0) ?(mttf = 30.0) ?(mttr = 5.0) s =
  match String.lowercase_ascii s with
  | "none" | "zero" -> Some profile_none
  | "crash" -> Some (profile_crash ~seed ~mttf ~mttr ())
  | "straggler" | "hang" -> Some (profile_straggler ~seed ~mttf ~mttr ())
  | "mixed" | "chaos" -> Some (profile_mixed ~seed ~mttf ~mttr ())
  | _ -> None

(* -------------------------------------------------------------- defenses *)

type defenses = {
  timeout_s : float;  (* per-attempt deadline; infinity disables *)
  max_retries : int;  (* deadline-driven retries per request *)
  backoff_s : float;  (* base redispatch backoff (exponential) *)
  backoff_jitter : float;  (* jitter fraction on the backoff, seeded *)
  requeue_on_crash : bool;  (* re-queue a crashed replica's requests *)
  hedge : bool;  (* duplicate slow requests after a p95-derived delay *)
  hedge_min_samples : int;  (* completions needed before hedging arms *)
  breaker : bool;  (* per-replica circuit breakers *)
  breaker_threshold : int;  (* consecutive failures to trip *)
  breaker_cooldown_s : float;  (* open -> half-open delay *)
  health_interval_s : float;  (* recovered-replica re-admission cadence *)
}

let no_defenses =
  {
    timeout_s = Float.infinity;
    max_retries = 0;
    backoff_s = 0.1;
    backoff_jitter = 0.0;
    requeue_on_crash = false;
    hedge = false;
    hedge_min_samples = 8;
    breaker = false;
    breaker_threshold = 3;
    breaker_cooldown_s = 5.0;
    health_interval_s = Float.infinity;
  }

let default_defenses =
  {
    timeout_s = 120.0;
    max_retries = 3;
    backoff_s = 0.1;
    backoff_jitter = 0.5;
    requeue_on_crash = true;
    hedge = true;
    hedge_min_samples = 8;
    breaker = true;
    breaker_threshold = 3;
    breaker_cooldown_s = 5.0;
    health_interval_s = 1.0;
  }

(* ---------------------------------------------------------------- config *)

type config = {
  replicas : int;
  router : router;
  policy : Traffic.policy;  (* per-replica batching *)
  slots : int;  (* continuous-batching slots per replica *)
  queue_capacity : int;  (* admission queue bound per replica *)
  seed : int;  (* front-end stream: p2c choices, jitter *)
  profile : fault_profile;
  defenses : defenses;
}

let default_config ?(replicas = 2) ?(router = Round_robin) ?(policy = Traffic.Continuous)
    ?(slots = 8) ?(queue_capacity = 64) ?(seed = 1) ?(profile = profile_none)
    ?(defenses = default_defenses) () =
  { replicas; router; policy; slots; queue_capacity; seed; profile; defenses }

(* --------------------------------------------------------------- results *)

type counters = {
  crashes : int;
  hangs : int;
  slowdowns : int;
  requeued : int;  (* crash-displaced dispatches (not charged to retries) *)
  retries : int;  (* deadline-driven re-dispatches *)
  timeouts : int;  (* attempts that outlived the per-request deadline *)
  hedges : int;  (* duplicate attempts launched *)
  hedge_wins : int;  (* hedged attempts that answered first *)
  breaker_trips : int;  (* closed/half-open -> open transitions *)
  probes : int;  (* half-open probe admissions *)
  dispatches : int;  (* every enqueue onto a replica, all causes *)
}

type report = {
  completions : Traffic.completion list;  (* in completion order *)
  arrivals : int;
  answered : int;
  dropped : int;  (* rejected by a full admission queue *)
  failed : int;  (* timed out / lost after the retry budget *)
  availability : float;  (* answered / (arrivals - dropped) *)
  amplification : float;  (* dispatches / (arrivals - dropped) *)
  makespan_s : float;
  goodput_tps : float;  (* completed tokens per second over the makespan *)
  ttft : Traffic.pct;
  latency : Traffic.pct;
  tiers : (Serving.tier * int) list;
  served_per_replica : int array;
  counters : counters;
}

let accounting_ok r = r.answered + r.dropped + r.failed = r.arrivals

(* ----------------------------------------------------------------- state *)

type ev =
  | Step of int * int  (* replica id, generation (stale guard) *)
  | Fail of int  (* replica id: next failure of the renewal process *)
  | Recover of int
  | Timeout of int * int  (* request index, attempt id *)
  | Hedge of int  (* request index *)
  | Redispatch of int  (* request index: retry after backoff *)
  | Health

type status = Waiting | Answered | Dropped | Failed

type req = {
  arr : Traffic.arrival;
  mutable status : status;
  mutable next_attempt : int;  (* fresh attempt-id source *)
  mutable outstanding : (int * int) list;  (* (attempt, replica) in flight *)
  mutable deadline_retries : int;
  mutable redispatches : int;  (* backoff waits while no replica is eligible *)
  mutable crash_requeues : int;  (* crash displacements survived so far *)
  mutable hedge_attempt : int;  (* attempt id of the hedge twin, -1 if none *)
}

(* one request attempt active on a replica, with the (request, attempt)
   identity the front-end needs for routing completions and cancellations *)
type alive = {
  al_req : int;
  al_attempt : int;
  al_arr : Traffic.arrival;
  al_costs : Serving.phase_costs;
  al_tier : Serving.tier;
  mutable al_done : int;
  mutable al_ttft : float;
}

type breaker = Closed | Open of float (* re-probe time *) | Half_open of bool (* probe out *)

type replica = {
  rid : int;
  frng : Rng.t;  (* failure renewal stream, decorrelated per replica *)
  mutable up : bool;
  mutable speed : float;  (* step-duration multiplier; 1.0 when healthy *)
  mutable ejected : bool;  (* health-check view: crashed, not yet re-admitted *)
  rq : (int * int) Queue.t;  (* admission queue of (request, attempt) *)
  mutable qlen : int;  (* logical length (cancelled entries excluded) *)
  mutable live : alive list;
  mutable joining : alive list;  (* popped at the last boundary, prefilling *)
  mutable stepping : bool;
  mutable gen : int;  (* bumped on crash to invalidate scheduled Steps *)
  mutable consec_fails : int;
  mutable br : breaker;
  mutable served : int;
}

let exp_draw rng mean = -.mean *. log (1.0 -. Rng.float rng)

(* caps that bound the simulation without ever firing in sane scenarios *)
let max_crash_requeues = 10_000
let max_redispatches = 1_000

let run cfg ~(cost : Traffic.cost_source) arrivals =
  if cfg.replicas < 1 then invalid_arg "Cluster.run: replicas must be positive";
  if cfg.slots < 1 then invalid_arg "Cluster.run: slots must be positive";
  if cfg.queue_capacity < 1 then invalid_arg "Cluster.run: queue_capacity must be positive";
  if profile_active cfg.profile && not (cfg.profile.mttr_s > 0.0) then
    invalid_arg "Cluster.run: mttr must be positive when faults are on";
  (* NaN compares false everywhere, so it would quietly switch these off *)
  if not (cfg.profile.mttf_s > 0.0) then
    invalid_arg "Cluster.run: mttf must be positive (infinity disables faults)";
  if not (cfg.defenses.timeout_s > 0.0) then
    invalid_arg "Cluster.run: timeout must be positive (infinity disables it)";
  (match cfg.policy with
  | Traffic.Static b when b < 1 -> invalid_arg "Cluster.run: batch size must be positive"
  | _ -> ());
  let d = cfg.defenses in
  let arrivals =
    Array.of_list
      (List.sort
         (fun (a : Traffic.arrival) b ->
           match Float.compare a.Traffic.at b.Traffic.at with
           | 0 -> Int.compare a.Traffic.id b.Traffic.id
           | c -> c)
         arrivals)
  in
  Array.iter
    (fun (a : Traffic.arrival) ->
      if a.Traffic.request.Serving.prompt < 1 || a.Traffic.request.Serving.generate < 1
      then invalid_arg "Cluster.run: request";
      if not (Float.is_finite a.Traffic.at) then
        invalid_arg "Cluster.run: arrival time must be finite")
    arrivals;
  let n = Array.length arrivals in
  let reqs =
    Array.map
      (fun a ->
        {
          arr = a;
          status = Waiting;
          next_attempt = 0;
          outstanding = [];
          deadline_retries = 0;
          redispatches = 0;
          crash_requeues = 0;
          hedge_attempt = -1;
        })
      arrivals
  in
  let replicas =
    Array.init cfg.replicas (fun rid ->
        {
          rid;
          frng = Rng.create (cfg.profile.fp_seed lxor ((rid + 1) * 0x1E3779B97F4A7C15));
          up = true;
          speed = 1.0;
          ejected = false;
          rq = Queue.create ();
          qlen = 0;
          live = [];
          joining = [];
          stepping = false;
          gen = 0;
          consec_fails = 0;
          br = Closed;
          served = 0;
        })
  in
  let frontend_rng = Rng.create cfg.seed in
  let q : ev Event_queue.t = Event_queue.create () in
  (* the arrival cursor: arrivals [0, !next) have been dispatched *)
  let next = ref 0 in
  if profile_active cfg.profile then begin
    Array.iter
      (fun r -> Event_queue.push q ~at:(exp_draw r.frng cfg.profile.mttf_s) (Fail r.rid))
      replicas;
    if d.health_interval_s < Float.infinity then
      Event_queue.push q ~at:d.health_interval_s Health
  end;
  (* tallies *)
  let resolved = ref 0 in
  let answered = ref 0 and dropped = ref 0 and failed = ref 0 in
  let crashes = ref 0 and hangs = ref 0 and slowdowns = ref 0 in
  let requeued = ref 0 and retries = ref 0 and timeouts = ref 0 in
  let hedges = ref 0 and hedge_wins = ref 0 in
  let breaker_trips = ref 0 and probes = ref 0 and dispatches = ref 0 in
  let completions = ref [] in
  let latencies = ref [] and n_latencies = ref 0 in
  (* ---------------------------------------------------------- the breaker *)
  let trip r t =
    if d.breaker then begin
      (match r.br with
      | Open _ -> ()
      | Closed | Half_open _ -> incr breaker_trips);
      r.br <- Open (t +. d.breaker_cooldown_s);
      r.consec_fails <- 0
    end
  in
  let breaker_fail r t =
    if d.breaker then
      match r.br with
      | Half_open _ -> trip r t  (* the probe failed: straight back to open *)
      | Closed ->
          r.consec_fails <- r.consec_fails + 1;
          if r.consec_fails >= d.breaker_threshold then trip r t
      | Open _ -> ()
  in
  let breaker_ok r t =
    (not d.breaker)
    ||
    match r.br with
    | Closed -> true
    | Open until ->
        if t >= until then begin
          r.br <- Half_open false;
          true
        end
        else false
    | Half_open probe_out -> not probe_out
  in
  let breaker_admit r =
    if d.breaker then
      match r.br with
      | Half_open false ->
          r.br <- Half_open true;
          incr probes
      | _ -> ()
  in
  let breaker_success r =
    if d.breaker then begin
      r.consec_fails <- 0;
      match r.br with Half_open _ -> r.br <- Closed | _ -> ()
    end
  in
  (* ----------------------------------------------------------- the router *)
  let rr_cursor = ref 0 in
  let load r = r.qlen + List.length r.live + List.length r.joining in
  let eligible ?(need_space = false) t r =
    r.up
    && (not r.ejected)
    && breaker_ok r t
    && ((not need_space) || r.qlen < cfg.queue_capacity)
  in
  let choose ?need_space ?(exclude = -1) t =
    let cands = ref [] in
    for rid = cfg.replicas - 1 downto 0 do
      if rid <> exclude && eligible ?need_space t replicas.(rid) then
        cands := replicas.(rid) :: !cands
    done;
    match !cands with
    | [] ->
        (* nothing but the excluded replica left? better than nothing *)
        if exclude >= 0 && eligible ?need_space t replicas.(exclude) then
          Some replicas.(exclude)
        else None
    | [ r ] -> Some r
    | cands -> (
        match cfg.router with
        | Round_robin ->
            let pick = ref None in
            let i = ref 0 in
            while !pick = None && !i < cfg.replicas do
              let rid = (!rr_cursor + !i) mod cfg.replicas in
              if List.exists (fun r -> r.rid = rid) cands then begin
                pick := Some replicas.(rid);
                rr_cursor := rid + 1
              end;
              incr i
            done;
            !pick
        | Least_loaded ->
            Some
              (List.fold_left
                 (fun best r -> if load r < load best then r else best)
                 (List.hd cands) (List.tl cands))
        | Power_of_two ->
            let arr = Array.of_list cands in
            let k = Array.length arr in
            let i = Rng.int frontend_rng k in
            let j0 = Rng.int frontend_rng (k - 1) in
            let j = if j0 >= i then j0 + 1 else j0 in
            let a = arr.(i) and b = arr.(j) in
            Some
              (if load a < load b then a
               else if load b < load a then b
               else if a.rid < b.rid then a
               else b))
  in
  (* --------------------------------------------------- the replica engine *)
  let admit (req_i, attempt) =
    let a = reqs.(req_i).arr in
    let costs, tier = cost a.Traffic.request in
    {
      al_req = req_i;
      al_attempt = attempt;
      al_arr = a;
      al_costs = costs;
      al_tier = tier;
      al_done = 0;
      al_ttft = Float.nan;
    }
  in
  let valid_entry (req_i, attempt) =
    reqs.(req_i).status = Waiting && List.mem_assoc attempt reqs.(req_i).outstanding
  in
  let pop_queue r k =
    let rec go k acc =
      if k = 0 || Queue.is_empty r.rq then List.rev acc
      else
        let e = Queue.pop r.rq in
        if valid_entry e then begin
          r.qlen <- r.qlen - 1;
          go (k - 1) (e :: acc)
        end
        else go k acc  (* cancelled: qlen already adjusted at cancel time *)
    in
    if r.qlen = 0 then [] else go k []
  in
  let step_cost live =
    List.fold_left
      (fun acc l ->
        Float.max acc
          (Serving.decode_cost l.al_costs (l.al_arr.Traffic.request.Serving.prompt + l.al_done)))
      0.0 live
  in
  let is_finished l = l.al_done >= l.al_arr.Traffic.request.Serving.generate in
  let begin_step t r =
    let entries =
      match cfg.policy with
      | Traffic.Continuous -> pop_queue r (cfg.slots - List.length r.live)
      | Traffic.Static b ->
          (* a batch forms only on an idle replica, once [b] requests wait
             or no more will arrive, and takes no joiner until it drains *)
          if r.live == [] && (r.qlen >= b || !next >= n) then pop_queue r b else []
    in
    let joiners = List.map admit entries in
    match (r.live, joiners) with
    | [], [] -> r.stepping <- false
    | live, _ ->
        (* joining is always empty here: a finished step or an idle kick *)
        if joiners != [] then r.joining <- joiners;
        (* with no live set this is the batch prefill; with no joiners, a
           plain decode step *)
        let dur =
          List.fold_left
            (fun acc j -> Float.max acc j.al_costs.Serving.prefill_s)
            (step_cost live) joiners
        in
        let dur = if r.speed = 1.0 then dur else dur *. r.speed in
        r.stepping <- true;
        Event_queue.push q ~at:(t +. dur) (Step (r.rid, r.gen))
  in
  let kick t r = if r.up && not r.stepping then begin_step t r in
  (* ------------------------------------------------------- request fates *)
  let cancel_attempt req_i attempt =
    let rq = reqs.(req_i) in
    match List.assoc_opt attempt rq.outstanding with
    | None -> ()
    | Some rid ->
        rq.outstanding <- List.remove_assoc attempt rq.outstanding;
        let r = replicas.(rid) in
        let is_it l = l.al_req = req_i && l.al_attempt = attempt in
        if List.exists is_it r.live then
          r.live <- List.filter (fun l -> not (is_it l)) r.live
        else if List.exists is_it r.joining then
          r.joining <- List.filter (fun l -> not (is_it l)) r.joining
        else r.qlen <- r.qlen - 1 (* still queued: lazy-deleted at pop *)
  in
  let fail_request req_i =
    let rq = reqs.(req_i) in
    if rq.status = Waiting then begin
      List.iter (fun (a, _) -> cancel_attempt req_i a) rq.outstanding;
      rq.status <- Failed;
      incr failed;
      incr resolved
    end
  in
  let enqueue t r req_i =
    let rq = reqs.(req_i) in
    let attempt = rq.next_attempt in
    rq.next_attempt <- attempt + 1;
    rq.outstanding <- (attempt, r.rid) :: rq.outstanding;
    Queue.add (req_i, attempt) r.rq;
    r.qlen <- r.qlen + 1;
    incr dispatches;
    breaker_admit r;
    if d.timeout_s < Float.infinity then
      Event_queue.push q ~at:(t +. d.timeout_s) (Timeout (req_i, attempt));
    attempt
  in
  (* every dispatch but an arrival's starts an idle replica at once;
     arrivals kick after their whole instant has queued *)
  let send t r req_i =
    let attempt = enqueue t r req_i in
    kick t r;
    attempt
  in
  let backoff_delay k =
    let exp = Float.of_int (1 lsl Stdlib.min k 6) in
    let jitter =
      if d.backoff_jitter > 0.0 then 1.0 +. (d.backoff_jitter *. Rng.float frontend_rng)
      else 1.0
    in
    d.backoff_s *. exp *. jitter
  in
  (* a displaced request (crash, timeout-retry) needs a replica with queue
     space; when none is eligible it backs off and re-enters later *)
  let redispatch t req_i =
    let rq = reqs.(req_i) in
    if rq.status = Waiting && rq.outstanding = [] then
      match choose ~need_space:true t with
      | Some r -> ignore (send t r req_i)
      | None ->
          if rq.redispatches >= max_redispatches then fail_request req_i
          else begin
            let k = rq.redispatches in
            rq.redispatches <- k + 1;
            Event_queue.push q ~at:(t +. backoff_delay k) (Redispatch req_i)
          end
  in
  (* crash displacement: Replica_crashed is transient and not the request's
     fault, so re-queuing is not charged against the deadline-retry budget *)
  let crash_loss t rid req_i attempt =
    let rq = reqs.(req_i) in
    rq.outstanding <- List.remove_assoc attempt rq.outstanding;
    let err = E.Replica_crashed { replica = rid } in
    if E.transient err && d.requeue_on_crash && rq.crash_requeues < max_crash_requeues
    then begin
      rq.crash_requeues <- rq.crash_requeues + 1;
      incr requeued;
      redispatch t req_i
    end
    else fail_request req_i
  in
  let complete r (l : alive) t =
    let rq = reqs.(l.al_req) in
    if rq.status = Waiting then begin
      let gen = l.al_arr.Traffic.request.Serving.generate in
      completions :=
        {
          Traffic.c_id = l.al_arr.Traffic.id;
          c_request = l.al_arr.Traffic.request;
          c_arrival_s = l.al_arr.Traffic.at;
          c_ttft_s = l.al_ttft -. l.al_arr.Traffic.at;
          c_latency_s = t -. l.al_arr.Traffic.at;
          c_tpot_s = (t -. l.al_ttft) /. float_of_int gen;
          c_tier = l.al_tier;
        }
        :: !completions;
      rq.status <- Answered;
      incr answered;
      incr resolved;
      r.served <- r.served + 1;
      if d.hedge then begin
        latencies := (t -. l.al_arr.Traffic.at) :: !latencies;
        incr n_latencies
      end;
      if rq.hedge_attempt >= 0 && l.al_attempt = rq.hedge_attempt then incr hedge_wins;
      rq.outstanding <- List.remove_assoc l.al_attempt rq.outstanding;
      List.iter (fun (a, _) -> cancel_attempt l.al_req a) rq.outstanding;
      breaker_success r
    end
    else rq.outstanding <- List.remove_assoc l.al_attempt rq.outstanding
  in
  (* hedge delay: the p95 of completed latencies so far — adaptive, and
     arm only once enough samples exist to make the tail meaningful *)
  let hedge_delay () =
    if !n_latencies < d.hedge_min_samples then None
    else
      Some (Picachu_tensor.Stats.percentile (Array.of_list !latencies) 95.0)
  in
  let initial_dispatch t req_i =
    (* admission control is per replica: the router's pick is final, and a
       full queue sheds the arrival *)
    match choose t with
    | None -> redispatch t req_i  (* whole cluster dark: back off, retry *)
    | Some r ->
        if r.qlen >= cfg.queue_capacity then begin
          reqs.(req_i).status <- Dropped;
          incr dropped;
          incr resolved
        end
        else begin
          ignore (enqueue t r req_i);
          if d.hedge then
            match hedge_delay () with
            | Some delay -> Event_queue.push q ~at:(t +. delay) (Hedge req_i)
            | None -> ()
        end
  in
  (* --------------------------------------------------------- event loop *)
  let arrival_due () =
    !next < n && arrivals.(!next).Traffic.at <= Event_queue.top_time q
  in
  let take_arrivals () =
    (* admit before pop: the whole instant queues (or is shed against the
       full queue) before any idle replica starts a step; once the cursor
       is exhausted this kick also starts a static tail batch *)
    let t = arrivals.(!next).Traffic.at in
    while !next < n && arrivals.(!next).Traffic.at = t do
      let i = !next in
      incr next;
      initial_dispatch t i
    done;
    Array.iter (kick t) replicas
  in
  while !resolved < n && (!next < n || not (Event_queue.is_empty q)) do
    if arrival_due () then take_arrivals ()
    else
    match Event_queue.pop q with
    | None -> ()
    | Some (t, ev) -> (
        match ev with
        | Step (rid, gen) ->
            let r = replicas.(rid) in
            if gen = r.gen && r.up then begin
              (* the step that began at the previous boundary ends at t;
                 live updates before completions run: a completion can
                 cancel a sibling attempt on this very replica, and that
                 cancellation must land on the new live list, not be
                 undone by it *)
              let finished_any =
                List.fold_left
                  (fun acc l ->
                    l.al_done <- l.al_done + 1;
                    acc || is_finished l)
                  false r.live
              in
              let finished =
                if not finished_any then []
                else begin
                  let finished, continuing = List.partition is_finished r.live in
                  r.live <- continuing;
                  finished
                end
              in
              (match r.joining with
              | [] -> ()
              | joining ->
                  List.iter (fun j -> j.al_ttft <- t) joining;
                  r.live <- r.live @ joining;
                  r.joining <- []);
              List.iter (fun l -> complete r l t) finished;
              begin_step t r
            end
        | Fail rid ->
            let r = replicas.(rid) in
            if r.up then begin
              let total = cfg.profile.p_crash +. cfg.profile.p_hang +. cfg.profile.p_slow in
              let u = Rng.float r.frng *. total in
              let dur = exp_draw r.frng cfg.profile.mttr_s in
              if u < cfg.profile.p_crash then begin
                (* crash: the replica loses everything in flight or queued *)
                incr crashes;
                r.up <- false;
                r.ejected <- true;
                r.gen <- r.gen + 1;
                r.stepping <- false;
                r.speed <- 1.0;
                let lost =
                  List.map (fun l -> (l.al_req, l.al_attempt)) (r.live @ r.joining)
                  @ pop_queue r max_int
                in
                r.live <- [];
                r.joining <- [];
                r.qlen <- 0;
                Queue.clear r.rq;
                trip r t;
                List.iter (fun (req_i, attempt) -> crash_loss t rid req_i attempt) lost
              end
              else if u < cfg.profile.p_crash +. cfg.profile.p_hang then begin
                incr hangs;
                r.speed <- cfg.profile.hang_factor
              end
              else begin
                incr slowdowns;
                r.speed <- cfg.profile.slow_factor
              end;
              Event_queue.push q ~at:(t +. dur) (Recover rid)
            end
        | Recover rid ->
            let r = replicas.(rid) in
            r.up <- true;
            r.speed <- 1.0;
            (* re-admission waits for a health check when checks are on *)
            if d.health_interval_s = Float.infinity then r.ejected <- false;
            Event_queue.push q ~at:(t +. exp_draw r.frng cfg.profile.mttf_s) (Fail rid)
        | Health ->
            Array.iter (fun r -> if r.up then r.ejected <- false) replicas;
            if !resolved < n then
              Event_queue.push q ~at:(t +. d.health_interval_s) Health
        | Timeout (req_i, attempt) ->
            let rq = reqs.(req_i) in
            if rq.status = Waiting && List.mem_assoc attempt rq.outstanding then begin
              incr timeouts;
              let rid = List.assoc attempt rq.outstanding in
              cancel_attempt req_i attempt;
              breaker_fail replicas.(rid) t;
              let err = E.Deadline_exceeded { request = rq.arr.Traffic.id; attempt } in
              if E.transient err && rq.deadline_retries < d.max_retries then begin
                rq.deadline_retries <- rq.deadline_retries + 1;
                incr retries;
                match choose ~need_space:true ~exclude:rid t with
                | Some r -> ignore (send t r req_i)
                | None -> redispatch t req_i
              end
              else if rq.outstanding = [] then fail_request req_i
              (* a hedge twin is still running: let it race the deadline *)
            end
        | Hedge req_i ->
            let rq = reqs.(req_i) in
            if
              rq.status = Waiting && rq.hedge_attempt < 0
              && List.length rq.outstanding = 1
            then begin
              let current_rid = snd (List.hd rq.outstanding) in
              match choose ~need_space:true ~exclude:current_rid t with
              | Some r when r.rid <> current_rid ->
                  incr hedges;
                  rq.hedge_attempt <- send t r req_i
              | _ -> ()  (* nowhere distinct to hedge: skip, don't re-arm *)
            end
        | Redispatch req_i -> redispatch t req_i)
  done;
  (* anything still unresolved when the queue drains is a lost request —
     the accounting identity must hold whatever the scenario did *)
  Array.iteri (fun i rq -> if rq.status = Waiting then fail_request i) reqs;
  let completions = List.rev !completions in
  let makespan =
    List.fold_left
      (fun acc (c : Traffic.completion) ->
        Float.max acc (c.Traffic.c_arrival_s +. c.Traffic.c_latency_s))
      0.0 completions
  in
  let tokens =
    List.fold_left
      (fun acc (c : Traffic.completion) -> acc + c.Traffic.c_request.Serving.generate)
      0 completions
  in
  let admitted = n - !dropped in
  {
    completions;
    arrivals = n;
    answered = !answered;
    dropped = !dropped;
    failed = !failed;
    availability =
      (if admitted = 0 then 1.0 else float_of_int !answered /. float_of_int admitted);
    amplification =
      (if admitted = 0 then 0.0 else float_of_int !dispatches /. float_of_int admitted);
    makespan_s = makespan;
    goodput_tps = (if completions = [] then 0.0 else float_of_int tokens /. makespan);
    ttft = Traffic.percentiles (fun c -> c.Traffic.c_ttft_s) completions;
    latency = Traffic.percentiles (fun c -> c.Traffic.c_latency_s) completions;
    tiers = Traffic.tier_tally completions;
    served_per_replica = Array.map (fun r -> r.served) replicas;
    counters =
      {
        crashes = !crashes;
        hangs = !hangs;
        slowdowns = !slowdowns;
        requeued = !requeued;
        retries = !retries;
        timeouts = !timeouts;
        hedges = !hedges;
        hedge_wins = !hedge_wins;
        breaker_trips = !breaker_trips;
        probes = !probes;
        dispatches = !dispatches;
      };
  }

let serve ?budget ?gpu cfg sim m spec =
  run cfg ~cost:(Traffic.robust_source ?budget ?gpu sim m) (Traffic.trace spec)
