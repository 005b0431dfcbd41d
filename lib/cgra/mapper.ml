module Op = Picachu_ir.Op
module Nm = Picachu_numerics
module Dfg = Picachu_dfg.Dfg
module Analysis = Picachu_dfg.Analysis
module Parallel = Picachu_parallel.Parallel

type placement = { time : int; tile : int }

type mapping = {
  ii : int;
  schedule : placement array;
  makespan : int;
  routed_hops : int;
  arch_name : string;
}

exception Unmappable of string

(* Observability hooks for the compilation pipeline: how hard did the II
   search work?  Plain process-global atomics — attribution to a particular
   compile is the caller's business (the pipeline snapshots totals), so
   concurrent mapping on the domain pool stays exact. *)
type counters = {
  ii_attempts : int;
  backtracks : int;
  warm_hits : int;
  warm_rejects : int;
}

let stat_ii_attempts = Atomic.make 0
let stat_backtracks = Atomic.make 0

let counters () =
  {
    ii_attempts = Atomic.get stat_ii_attempts;
    backtracks = Atomic.get stat_backtracks;
    warm_hits = 0;
    warm_rejects = 0;
  }

let reset_counters () =
  Atomic.set stat_ii_attempts 0;
  Atomic.set stat_backtracks 0

let popcount m =
  let c = ref 0 and m = ref m in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr c
  done;
  !c

let res_mii arch (g : Dfg.t) =
  (* group nodes by the exact set of tiles able to execute them; each class
     of [count] nodes sharing [k] capable tiles forces ceil(count/k) *)
  let tiles = Arch.tiles arch in
  let n = Dfg.node_count g in
  let bound = ref 1 in
  if tiles <= 62 then begin
    (* fast path: the support set fits one int bitmask — a sort over a
       scratch array groups the classes without any list or tuple churn *)
    let masks = Array.make (Stdlib.max n 1) 0 in
    for u = 0 to n - 1 do
      let m = ref 0 in
      let op = g.nodes.(u).op in
      for t = 0 to tiles - 1 do
        if Arch.supports arch ~tile:t op then m := !m lor (1 lsl t)
      done;
      if !m = 0 then
        raise (Unmappable (Printf.sprintf "%s: op supported by no tile" g.label));
      masks.(u) <- !m
    done;
    Array.sort Int.compare masks;
    (* collapse to (distinct mask, node count) runs *)
    let cmask = Array.make (Stdlib.max n 1) 0 in
    let ccount = Array.make (Stdlib.max n 1) 0 in
    let classes = ref 0 in
    let i = ref 0 in
    while !i < n do
      let m = masks.(!i) in
      let j = ref !i in
      while !j < n && masks.(!j) = m do
        incr j
      done;
      cmask.(!classes) <- m;
      ccount.(!classes) <- !j - !i;
      incr classes;
      i := !j
    done;
    let k = !classes in
    if k <= 12 then
      (* Hall-condition bound over class unions: any set of classes whose
         combined [c] nodes share only [s] supporting tiles forces
         ceil(c / s) — per-class bounds miss this when classes overlap
         (e.g. loads confined to port columns squeezed by ALU ops that can
         also only run there).  Classes are few, so 2^k unions are cheap;
         the all-classes union subsumes the old aggregate total/tiles
         term. *)
      for subset = 1 to (1 lsl k) - 1 do
        let union = ref 0 and c = ref 0 in
        for ci = 0 to k - 1 do
          if subset land (1 lsl ci) <> 0 then begin
            union := !union lor cmask.(ci);
            c := !c + ccount.(ci)
          end
        done;
        let s = popcount !union in
        bound := Stdlib.max !bound ((!c + s - 1) / s)
      done
    else
      for ci = 0 to k - 1 do
        let s = popcount cmask.(ci) in
        bound := Stdlib.max !bound ((ccount.(ci) + s - 1) / s)
      done
  end
  else begin
    (* wide fabrics: fall back to the list-keyed grouping *)
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun (node : Dfg.node) ->
        let supp = ref [] in
        for t = tiles - 1 downto 0 do
          if Arch.supports arch ~tile:t node.op then supp := t :: !supp
        done;
        let key = !supp in
        Hashtbl.replace tbl key
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
      g.nodes;
    Hashtbl.iter
      (fun tiles_of count ->
        let k = List.length tiles_of in
        if k = 0 then
          raise (Unmappable (Printf.sprintf "%s: op supported by no tile" g.label));
        bound := Stdlib.max !bound ((count + k - 1) / k))
      tbl
  end;
  Stdlib.max !bound ((n + tiles - 1) / tiles)

(* Transport-aware recurrence bound.  Around every loop-carried cycle the
   mapper enforces  sum (lat + hops) <= II * distance;  RecMII keeps only
   the latency term.  When the recurrence endpoints' capability classes are
   disjoint (e.g. a phi pinned to BrT corners fed by a CoT-only op), the
   back edge must pay at least the minimum inter-class mesh distance, so

     II >= ceil((cycle_latency + min_hop(supp src, supp dst)) / distance)

   is still a true lower bound for the mapper's model — [min_hop] is 0
   whenever the two classes share a tile.  Latencies are the architecture's
   own ([Arch.latency]), matching exactly what [try_map] enforces. *)
let transport_mii arch (g : Dfg.t) =
  let back = List.filter (fun (e : Dfg.edge) -> e.distance > 0) g.edges in
  if back = [] then 1
  else begin
    let n = Dfg.node_count g in
    let tiles = Arch.tiles arch in
    let lat = Array.init n (fun u -> Arch.latency arch g.nodes.(u).op) in
    let supp =
      Array.init n (fun u ->
          let op = g.nodes.(u).op in
          let l = ref [] in
          for t = tiles - 1 downto 0 do
            if Arch.supports arch ~tile:t op then l := t :: !l
          done;
          !l)
    in
    let min_hop s d =
      let best = ref max_int in
      List.iter
        (fun ts ->
          List.iter
            (fun td -> best := Stdlib.min !best (Arch.distance arch ts td))
            supp.(d))
        supp.(s);
      if !best = max_int then 0 else !best
    in
    let order = Dfg.topo_order g in
    (* longest forward-path latency from [src] to [dst], endpoints included;
       -1 when unreachable (same convention as Analysis.longest_path, but
       with the architecture's latencies) *)
    let longest src dst =
      let dist = Array.make n min_int in
      dist.(src) <- lat.(src);
      List.iter
        (fun u ->
          if dist.(u) > min_int then
            List.iter
              (fun ((v, d) : int * int) ->
                if d = 0 then
                  let cand = dist.(u) + lat.(v) in
                  if cand > dist.(v) then dist.(v) <- cand)
              (Dfg.succs g u))
        order;
      if dist.(dst) = min_int then -1 else dist.(dst)
    in
    List.fold_left
      (fun acc (e : Dfg.edge) ->
        if e.src = e.dst then
          Stdlib.max acc ((lat.(e.src) + e.distance - 1) / e.distance)
        else
          let p = longest e.dst e.src in
          if p < 0 then acc
          else
            Stdlib.max acc
              ((p + min_hop e.src e.dst + e.distance - 1) / e.distance))
      1 back
  end

let min_ii arch g =
  Stdlib.max (res_mii arch g)
    (Stdlib.max (Analysis.rec_mii g) (transport_mii arch g))

(* ----------------------------------------------------- per-graph context *)

(* Everything about (arch, graph) that the Rau search reads but never
   writes, computed once per [map_dfg] and shared by every (II, salt)
   attempt — including the parallel retry salts, which only ever read it.
   Adjacency is packed as [node lsl 8 lor distance] ints, the mesh distance
   matrix is flattened, and the scheduling priority (height, then lowest
   id) is pre-encoded so the worklist heap compares single ints. *)
type ctx = {
  n : int;
  tiles : int;
  arch_name : string;
  lat : int array;
  preds : int array array;  (** packed (pred lsl 8) lor distance, edge order *)
  succs : int array array;
  cand_tiles : int array array;  (** supporting tiles per node, ascending *)
  dist : int array;  (** flattened tiles x tiles Manhattan distances *)
  phi_anchor : int array;
  prio : int array;  (** height * (n+1) + (n - u): max-heap key *)
}

let make_ctx arch (g : Dfg.t) =
  let n = Dfg.node_count g in
  let tiles = Arch.tiles arch in
  let lat = Array.init n (fun u -> Arch.latency arch g.nodes.(u).op) in
  let pc = Array.make n 0 and sc = Array.make n 0 in
  List.iter
    (fun (e : Dfg.edge) ->
      pc.(e.dst) <- pc.(e.dst) + 1;
      sc.(e.src) <- sc.(e.src) + 1)
    g.edges;
  let preds = Array.init n (fun u -> Array.make pc.(u) 0) in
  let succs = Array.init n (fun u -> Array.make sc.(u) 0) in
  let pi = Array.make n 0 and si = Array.make n 0 in
  List.iter
    (fun (e : Dfg.edge) ->
      let packed d v = (v lsl 8) lor (d land 0xff) in
      preds.(e.dst).(pi.(e.dst)) <- packed e.distance e.src;
      pi.(e.dst) <- pi.(e.dst) + 1;
      succs.(e.src).(si.(e.src)) <- packed e.distance e.dst;
      si.(e.src) <- si.(e.src) + 1)
    g.edges;
  let cand_tiles =
    Array.init n (fun u ->
        let op = g.nodes.(u).op in
        let c = ref 0 in
        for t = 0 to tiles - 1 do
          if Arch.supports arch ~tile:t op then incr c
        done;
        let a = Array.make !c 0 in
        let i = ref 0 in
        for t = 0 to tiles - 1 do
          if Arch.supports arch ~tile:t op then begin
            a.(!i) <- t;
            incr i
          end
        done;
        a)
  in
  let dist = Arch.distance_matrix arch in
  let topo = Dfg.topo_order g in
  (* priority: height = longest latency path to any sink over forward edges *)
  let height = Array.make n 0 in
  List.iter
    (fun u ->
      height.(u) <- lat.(u);
      Array.iter
        (fun p ->
          let v = p lsr 8 and d = p land 0xff in
          if d = 0 then height.(u) <- Stdlib.max height.(u) (lat.(u) + height.(v)))
        succs.(u))
    (List.rev topo);
  (* Phis have no forward predecessors, so a naive first placement at cycle 0
     imposes a back-edge deadline their source cannot meet when the
     recurrence body is long; anchor each phi's *first* placement near the
     ASAP finish of its loop-carried source (ejected phis re-place from
     their then-known constraints). *)
  let asap = Array.make n 0 in
  List.iter
    (fun u ->
      Array.iter
        (fun p ->
          let v = p lsr 8 and d = p land 0xff in
          if d = 0 then asap.(v) <- Stdlib.max asap.(v) (asap.(u) + lat.(u)))
        succs.(u))
    topo;
  let phi_anchor = Array.make n 0 in
  List.iter
    (fun (e : Dfg.edge) ->
      if e.distance > 0 && e.src <> e.dst then
        phi_anchor.(e.dst) <-
          Stdlib.max phi_anchor.(e.dst) (asap.(e.src) + lat.(e.src)))
    g.edges;
  let prio = Array.init n (fun u -> (height.(u) * (n + 1)) + (n - u)) in
  {
    n;
    tiles;
    arch_name = arch.Arch.name;
    lat;
    preds;
    succs;
    cand_tiles;
    dist;
    phi_anchor;
    prio;
  }

(* Rau-style iterative modulo scheduling with ejection, extended with spatial
   placement: a schedule slot is a (cycle, tile) pair; operand transport over
   the mesh adds Manhattan-distance cycles to dependence latencies. *)
let try_map_ctx ctx (g : Dfg.t) ~salt ii =
  Atomic.incr stat_ii_attempts;
  let {
    n;
    tiles;
    arch_name;
    lat;
    preds;
    succs;
    cand_tiles;
    dist;
    phi_anchor;
    prio;
  } =
    ctx
  in
  let time = Array.make n (-1) in
  let tile_of = Array.make n (-1) in
  let never_scheduled = Array.make n true in
  let prev_forced = Array.make n (-1) in
  let occupant = Array.make (tiles * ii) (-1) in
  let occ_count = Array.make tiles 0 in
  let budget = ref (Stdlib.max 1000 (50 * n)) in
  (* worklist: binary max-heap on the precomputed priority.  Every unplaced
     node has exactly one live entry (ejection re-pushes, and [eject] is a
     no-op on unplaced nodes), so the top is always the max-height,
     lowest-id unplaced node — the same pick the old O(n^2) scan made. *)
  let heap = Array.make (Stdlib.max n 1) 0 in
  let hsize = ref 0 in
  let push u =
    let i = ref !hsize in
    incr hsize;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if prio.(heap.(parent)) < prio.(u) then begin
        heap.(!i) <- heap.(parent);
        i := parent
      end
      else continue := false
    done;
    heap.(!i) <- u
  in
  let pop () =
    if !hsize = 0 then -1
    else begin
      let top = heap.(0) in
      decr hsize;
      if !hsize > 0 then begin
        let u = heap.(!hsize) in
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let best = ref !i in
          if l < !hsize && prio.(heap.(l)) > prio.(u) then best := l;
          if
            r < !hsize
            && prio.(heap.(r))
               > prio.(if !best = !i then u else heap.(!best))
          then best := r;
          if !best = !i then begin
            heap.(!i) <- u;
            continue := false
          end
          else begin
            heap.(!i) <- heap.(!best);
            i := !best
          end
        done
      end;
      top
    end
  in
  for u = 0 to n - 1 do
    push u
  done;
  let eject u =
    if time.(u) >= 0 then begin
      Atomic.incr stat_backtracks;
      let t = tile_of.(u) in
      occupant.((t * ii) + (time.(u) mod ii)) <- -1;
      occ_count.(t) <- occ_count.(t) - 1;
      time.(u) <- -1;
      tile_of.(u) <- -1;
      push u
    end
  in
  let keys = Array.make tiles 0 in
  let place u =
    let pr = preds.(u) in
    let npr = Array.length pr in
    let floor_time = if never_scheduled.(u) then phi_anchor.(u) else 0 in
    (* earliest start per tile from placed predecessors (either direction) *)
    let earliest tl =
      let acc = ref floor_time in
      for i = 0 to npr - 1 do
        let p = pr.(i) lsr 8 and d = pr.(i) land 0xff in
        if p <> u && time.(p) >= 0 then begin
          let c =
            time.(p) + lat.(p) + dist.((tile_of.(p) * tiles) + tl) - (d * ii)
          in
          if c > !acc then acc := c
        end
      done;
      !acc
    in
    let cand = cand_tiles.(u) in
    let ncand = Array.length cand in
    if ncand = 0 then raise (Unmappable (g.label ^ ": op supported by no tile"));
    (* candidate order: (routing cost to placed preds, occupancy, tile id),
       packed into one int per tile so the sort compares unboxed ints *)
    for ci = 0 to ncand - 1 do
      let t = cand.(ci) in
      let cost = ref 0 in
      for i = 0 to npr - 1 do
        let p = pr.(i) lsr 8 in
        if time.(p) >= 0 then cost := !cost + dist.((tile_of.(p) * tiles) + t)
      done;
      keys.(ci) <- ((((!cost * 65536) + occ_count.(t)) * 65536) + t)
    done;
    (* in-place insertion sort over the packed keys: lexicographic
       (cost, occupancy, tile), no tuple or list allocation *)
    for i = 1 to ncand - 1 do
      let k = keys.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && keys.(!j) > k do
        keys.(!j + 1) <- keys.(!j);
        decr j
      done;
      keys.(!j + 1) <- k
    done;
    (* salt rotates the candidate order (kept as a start offset) *)
    let rot = if salt <= 0 then 0 else salt mod ncand in
    let tile_at j = keys.((j + rot) mod ncand) land 65535 in
    (* latest feasible issue per tile, from placed successors (deadline-aware
       pass 1 — placements that would immediately eject a consumer are worse
       than a slightly later slot that would not) *)
    let su = succs.(u) in
    let nsu = Array.length su in
    let latest tl =
      let acc = ref max_int in
      for i = 0 to nsu - 1 do
        let v = su.(i) lsr 8 and d = su.(i) land 0xff in
        if v <> u && time.(v) >= 0 then begin
          let c =
            time.(v) + (d * ii) - lat.(u) - dist.((tl * tiles) + tile_of.(v))
          in
          if c < !acc then acc := c
        end
      done;
      !acc
    in
    (* pass 1: a free slot within one II window of the earliest start that
       also meets every placed successor's deadline *)
    let found_tile = ref (-1) and found_t = ref 0 in
    let j = ref 0 in
    while !found_tile < 0 && !j < ncand do
      let tl = tile_at !j in
      let e = earliest tl in
      let lim = Stdlib.min (e + ii - 1) (latest tl) in
      let t = ref e in
      while !found_tile < 0 && !t <= lim do
        if occupant.((tl * ii) + (!t mod ii)) = -1 then begin
          found_tile := tl;
          found_t := !t
        end;
        incr t
      done;
      incr j
    done;
    let tl, t =
      if !found_tile >= 0 then (!found_tile, !found_t)
      else begin
        (* force placement, ejecting the occupant (Rau's rule: never at the
           same slot as the previous forced attempt) *)
        let tl = tile_at 0 in
        let e = earliest tl in
        let t = if e > prev_forced.(u) then e else prev_forced.(u) + 1 in
        prev_forced.(u) <- t;
        (tl, t)
      end
    in
    let slot = (tl * ii) + (t mod ii) in
    (match occupant.(slot) with -1 -> () | v -> eject v);
    occupant.(slot) <- u;
    occ_count.(tl) <- occ_count.(tl) + 1;
    time.(u) <- t;
    tile_of.(u) <- tl;
    never_scheduled.(u) <- false;
    (* eject placed successors whose dependence is now violated *)
    for i = 0 to nsu - 1 do
      let v = su.(i) lsr 8 and d = su.(i) land 0xff in
      if
        v <> u
        && time.(v) >= 0
        && time.(v) < t + lat.(u) + dist.((tl * tiles) + tile_of.(v)) - (d * ii)
      then eject v
    done;
    (* self-loop sanity: a fused accumulator needs lat <= ii *)
    for i = 0 to nsu - 1 do
      let v = su.(i) lsr 8 and d = su.(i) land 0xff in
      if v = u && d > 0 && lat.(u) > d * ii then eject u
    done
  in
  let rec loop () =
    let u = pop () in
    if u = -1 then true
    else if !budget <= 0 then false
    else begin
      decr budget;
      place u;
      loop ()
    end
  in
  if not (loop ()) then None
  else begin
    let schedule = Array.init n (fun u -> { time = time.(u); tile = tile_of.(u) }) in
    let makespan = ref 0 in
    for u = 0 to n - 1 do
      if time.(u) + lat.(u) > !makespan then makespan := time.(u) + lat.(u)
    done;
    let routed_hops =
      List.fold_left
        (fun acc (e : Dfg.edge) ->
          acc + dist.((tile_of.(e.src) * tiles) + tile_of.(e.dst)))
        0 g.edges
    in
    Some { ii; schedule; makespan = !makespan; routed_hops; arch_name }
  end

let max_salt = 3

(* --------------------------------------------------------------- search *)

(* Distinct LUT tables the loop references (fusion may have subsumed the
   lookup into a fused node, so scan members).  Their summed ROM bytes are
   tile-resident state: every tile that can execute the lookup keeps its own
   copy of the table, so the whole set must fit one tile's ROM budget. *)
let lut_names g =
  let names = ref [] in
  Array.iter
    (fun (n : Dfg.node) ->
      List.iter
        (function
          | Op.Lut name when not (List.mem name !names) -> names := name :: !names
          | _ -> ())
        n.Dfg.members)
    g.Dfg.nodes;
  List.rev !names

let lut_rom_bytes g = Nm.Lut_catalog.footprint_bytes (lut_names g)

let check_lut_capacity arch g =
  let rom = lut_rom_bytes g in
  if rom > arch.Arch.lut_capacity_bytes then
    raise
      (Unmappable
         (Printf.sprintf
            "%s: LUT tables (%s) need %d ROM bytes, tile capacity is %d"
            g.Dfg.label
            (String.concat ", " (lut_names g))
            rom arch.Arch.lut_capacity_bytes))

let map_dfg ?(max_ii = 128) arch g =
  check_lut_capacity arch g;
  let ctx = make_ctx arch g in
  let start = min_ii arch g in
  (* a few salted attempts per II escape deterministic ejection livelocks
     (the phi/source pair chasing each other through the same tile order).
     Salt 0 runs first on its own — the common immediate success — and only
     the retry salts fan out across the domain pool; the accepted mapping is
     always the lowest successful salt, matching the sequential order. *)
  let retry_salts = Array.init max_salt (fun i -> i + 1) in
  let attempts ii =
    match try_map_ctx ctx g ~salt:0 ii with
    | Some m -> Some m
    | None ->
        if Parallel.in_parallel () || Parallel.size () <= 1 then
          (* sequential retries keep the historical early exit *)
          let rec go salt =
            if salt > max_salt then None
            else
              match try_map_ctx ctx g ~salt ii with
              | Some m -> Some m
              | None -> go (salt + 1)
          in
          go 1
        else
          let results =
            Parallel.parallel_map_array
              (fun salt -> try_map_ctx ctx g ~salt ii)
              retry_salts
          in
          Array.fold_left
            (fun acc r -> match acc with Some _ -> acc | None -> r)
            None results
  in
  let unmappable () =
    raise
      (Unmappable
         (Printf.sprintf "%s: no II <= %d on %s" g.Dfg.label max_ii
            arch.Arch.name))
  in
  (* Geometric escalation with binary refinement: on failure the step
     doubles (start, +1, +2, +4, ...) so a hard kernel stops paying one
     full failed Rau search per skipped II, then a binary search between
     the last failure and the first success recovers the smallest
     schedulable II.  On kernels whose failing span is <= 2 levels (the
     whole current roster) the visited IIs — and therefore the accepted
     (II, salt) mapping — are identical to the old linear scan. *)
  let rec refine lf hi m =
    (* invariant: lf failed, hi succeeded with [m] *)
    if hi <= lf + 1 then m
    else
      let mid = (lf + hi) / 2 in
      match attempts mid with
      | Some m' -> refine lf mid m'
      | None -> refine mid hi m
  in
  let rec escalate prev_fail step =
    let ii = Stdlib.min (prev_fail + step) max_ii in
    match attempts ii with
    | Some m -> refine prev_fail ii m
    | None -> if ii >= max_ii then unmappable () else escalate ii (2 * step)
  in
  if start > max_ii then unmappable ()
  else
    match attempts start with
    | Some m -> m
    | None -> if start >= max_ii then unmappable () else escalate start 1

let loop_cycles m ~trips = if trips <= 0 then 0 else m.makespan + ((trips - 1) * m.ii)

let utilization m g arch =
  float_of_int (Dfg.node_count g) /. float_of_int (m.ii * Arch.tiles arch)
