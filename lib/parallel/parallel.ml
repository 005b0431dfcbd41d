(* A hand-rolled persistent domain pool (no domainslib): n-1 worker domains
   block on a condition variable; a parallel region bumps a generation
   counter, hands every worker the same thunk, and the caller participates
   before waiting for stragglers.  Work inside a region is distributed by an
   atomic chunk counter, so load balancing is dynamic while the per-index
   computation stays exactly the sequential one. *)

type pool = {
  size : int;
  mutable workers : unit Domain.t array;
  region_lock : Mutex.t;  (* serializes concurrent outer callers *)
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;
  mutable body : (unit -> unit) option;
  mutable pending : int;
  mutable stop : bool;
}

(* Set while a domain executes inside a parallel region; nested combinator
   calls check it and run inline. *)
let inside_region : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_parallel () = Domain.DLS.get inside_region

let run_region_body body =
  Domain.DLS.set inside_region true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set inside_region false) body

let rec worker_loop pool seen =
  Mutex.lock pool.lock;
  while (not pool.stop) && pool.generation = seen do
    Condition.wait pool.work_ready pool.lock
  done;
  if pool.stop then Mutex.unlock pool.lock
  else begin
    let generation = pool.generation in
    let body = pool.body in
    Mutex.unlock pool.lock;
    (match body with
    | Some b -> ( try run_region_body b with _ -> () )
    | None -> ());
    Mutex.lock pool.lock;
    pool.pending <- pool.pending - 1;
    if pool.pending = 0 then Condition.broadcast pool.work_done;
    Mutex.unlock pool.lock;
    worker_loop pool generation
  end

let create n =
  let size = Stdlib.max 1 n in
  let pool =
    {
      size;
      workers = [||];
      region_lock = Mutex.create ();
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      body = None;
      pending = 0;
      stop = false;
    }
  in
  pool.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool 0));
  pool

let pool_size p = p.size

let shutdown p =
  Mutex.lock p.lock;
  let workers = p.workers in
  p.workers <- [||];
  p.stop <- true;
  Condition.broadcast p.work_ready;
  Mutex.unlock p.lock;
  Array.iter Domain.join workers

(* The caller runs [body] too, then waits for every worker to drain it.
   Outer callers are serialized: nested calls never get here (they run
   inline via the [inside_region] guard). *)
let run_region p body =
  Mutex.lock p.region_lock;
  Mutex.lock p.lock;
  p.generation <- p.generation + 1;
  p.body <- Some body;
  p.pending <- Array.length p.workers;
  Condition.broadcast p.work_ready;
  Mutex.unlock p.lock;
  (try run_region_body body with _ -> ());
  Mutex.lock p.lock;
  while p.pending > 0 do
    Condition.wait p.work_done p.lock
  done;
  p.body <- None;
  Mutex.unlock p.lock;
  Mutex.unlock p.region_lock

let default_size () =
  let hw = Stdlib.max 1 (Domain.recommended_domain_count ()) in
  match Sys.getenv_opt "PICACHU_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      (* clamp to the hardware: these kernels are compute-bound, so
         oversubscribing a small machine only adds GC-coordination and
         scheduling overhead *)
      | Some n when n >= 1 -> Stdlib.min n hw
      | _ -> invalid_arg "PICACHU_DOMAINS: expected a positive integer")
  | None -> hw

let global_lock = Mutex.create ()
let global_pool : pool option ref = ref None
let exit_hook_installed = ref false

let global () =
  Mutex.lock global_lock;
  let p =
    match !global_pool with
    | Some p -> p
    | None ->
        let p = create (default_size ()) in
        global_pool := Some p;
        if not !exit_hook_installed then begin
          exit_hook_installed := true;
          at_exit (fun () ->
              match !global_pool with
              | Some p ->
                  global_pool := None;
                  shutdown p
              | None -> ())
        end;
        p
  in
  Mutex.unlock global_lock;
  p

let size () = pool_size (global ())

let with_pool ~size f =
  let p = create size in
  Mutex.lock global_lock;
  let saved = !global_pool in
  global_pool := Some p;
  Mutex.unlock global_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock global_lock;
      global_pool := saved;
      Mutex.unlock global_lock;
      shutdown p)
    f

let seq_for lo hi f =
  for i = lo to hi - 1 do
    f i
  done

let parallel_for ?chunk lo hi f =
  let n = hi - lo in
  if n <= 0 then ()
  else if in_parallel () then seq_for lo hi f
  else
    let p = global () in
    let alive = p.size > 1 && Array.length p.workers > 0 in
    if (not alive) || n = 1 then seq_for lo hi f
    else begin
      let chunk_size =
        match chunk with
        | Some c -> Stdlib.max 1 c
        | None -> Stdlib.max 1 ((n + (4 * p.size) - 1) / (4 * p.size))
      in
      let nchunks = (n + chunk_size - 1) / chunk_size in
      if nchunks <= 1 then seq_for lo hi f
      else begin
        let next = Atomic.make 0 in
        let error : (exn * Printexc.raw_backtrace) option Atomic.t = Atomic.make None in
        let body () =
          let continue = ref true in
          while !continue do
            let c = Atomic.fetch_and_add next 1 in
            if c >= nchunks || Atomic.get error <> None then continue := false
            else begin
              let clo = lo + (c * chunk_size) in
              let chi = Stdlib.min hi (clo + chunk_size) in
              try seq_for clo chi f
              with e ->
                let bt = Printexc.get_raw_backtrace () in
                ignore (Atomic.compare_and_set error None (Some (e, bt)));
                continue := false
            end
          done
        in
        run_region p body;
        match Atomic.get error with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ()
      end
    end

let parallel_map_array f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let first = f (Array.unsafe_get a 0) in
    let out = Array.make n first in
    parallel_for 1 n (fun i -> Array.unsafe_set out i (f (Array.unsafe_get a i)));
    out
  end

let parallel_reduce ?chunk ~lo ~hi ~init ~fold map =
  let n = hi - lo in
  if n <= 0 then init
  else begin
    (* block boundaries depend only on the range, never on the pool size *)
    let block_size =
      match chunk with Some c -> Stdlib.max 1 c | None -> Stdlib.max 1 ((n + 63) / 64)
    in
    let nblocks = (n + block_size - 1) / block_size in
    let block b =
      let blo = lo + (b * block_size) in
      let bhi = Stdlib.min hi (blo + block_size) in
      let acc = ref (map blo) in
      for i = blo + 1 to bhi - 1 do
        acc := fold !acc (map i)
      done;
      !acc
    in
    let partials = parallel_map_array block (Array.init nblocks (fun b -> b)) in
    Array.fold_left fold init partials
  end
