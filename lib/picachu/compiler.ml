module Kernel = Picachu_ir.Kernel
module Kernels = Picachu_ir.Kernels
module Kernel_text = Picachu_ir.Kernel_text
module Transform = Picachu_ir.Transform
module Dfg = Picachu_dfg.Dfg
module Fuse = Picachu_dfg.Fuse
module Arch = Picachu_cgra.Arch
module Mapper = Picachu_cgra.Mapper
module Verify = Picachu_verify.Verify
module Finding = Picachu_verify.Finding
module Precision = Picachu_verify.Precision
module Absint = Picachu_verify.Absint

type options = {
  arch : Arch.t;
  fuse : bool;
  unroll_candidates : int list;
  vector : int;
}

let picachu_options ?arch ?(vector = 1) () =
  {
    arch = (match arch with Some a -> a | None -> Arch.picachu ());
    fuse = true;
    unroll_candidates = [ 1; 2; 4 ];
    vector;
  }

let baseline_options ?arch () =
  {
    arch = (match arch with Some a -> a | None -> Arch.baseline ());
    fuse = false;
    unroll_candidates = [ 1 ];
    vector = 1;
  }

type compiled_loop = {
  source : Kernel.loop;
  dfg : Dfg.t;
  mapping : Mapper.mapping;
}

type compiled = {
  kernel : Kernel.t;
  loops : compiled_loop list;
  unroll : int;
  vector : int;
  arch : Arch.t;
  arch_name : string;
}

(* ------------------------------------------------------------- pipeline *)

let pass_names = [ "vectorize"; "unroll"; "extract"; "fuse"; "schedule" ]

let () =
  List.iter Pipeline.declare pass_names;
  Pipeline.declare "select-format";
  (* the precision analyzer's fixpoint rounds, and how many of them
     evaluated the whole loop body, surface under format selection, the
     pass that runs it during a compile *)
  Pipeline.register_counter_source ~pass:"select-format"
    ~reset:Absint.reset_fixpoint_rounds (fun () ->
      [
        ("fixpoint-rounds", Absint.fixpoint_rounds ());
        ("full-rounds", Absint.full_rounds ());
      ]);
  (* the mapper's search-effort atomics surface under the schedule pass *)
  Pipeline.register_counter_source ~pass:"schedule"
    ~reset:Mapper.reset_counters (fun () ->
      let c = Mapper.counters () in
      [
        ("ii-attempts", c.Mapper.ii_attempts);
        ("backtracks", c.Mapper.backtracks);
      ])

(* ------------------------------------------------- format selection pass *)

(* Precision-driven format choice runs as its own registered pass so the
   ladder walk shows up in [compile_stats] next to the structural passes:
   how many candidates each selection proved bounds for, and how often the
   budget was missed (a fallback to the best-proven / widest format). *)
let stage_select_format ?budget ?candidates () =
  Pipeline.v ~name:"select-format" (fun k ->
      let c = Precision.select_format ?budget ?candidates k in
      Pipeline.bump ~pass:"select-format" "candidates-proven"
        (List.length
           (List.filter (fun (_, b) -> Float.is_finite b) c.Precision.tried));
      Pipeline.bump ~pass:"select-format" "candidates-tried"
        (List.length c.Precision.tried);
      if c.Precision.fallback then
        Pipeline.bump ~pass:"select-format" "fallbacks" 1;
      c)

let select_format ?budget ?candidates (k : Kernel.t) =
  Pipeline.run (stage_select_format ?budget ?candidates ()) k

let dump_dfg (_, g) = Format.asprintf "%a" Dfg.pp g

let stage_vectorize vf =
  Pipeline.v ~name:"vectorize" ~post:Verify.lint_kernel
    ~dump:Kernel_text.to_string (fun k ->
      if vf > 1 then Transform.vectorize_kernel vf k else k)

let stage_unroll uf =
  Pipeline.v ~name:"unroll" ~post:Verify.lint_kernel
    ~dump:Kernel_text.to_string (fun k ->
      if uf > 1 then Transform.unroll_kernel uf k else k)

let stage_extract =
  Pipeline.v ~name:"extract"
    ~post:(fun (loop, g) -> Verify.check_dfg ~source:loop g)
    ~dump:dump_dfg
    (fun loop -> (loop, Dfg.of_loop loop))

let stage_fuse =
  Pipeline.v ~name:"fuse"
    ~post:(fun (loop, g) -> Verify.check_dfg ~source:loop g)
    ~dump:dump_dfg
    (fun (loop, g) ->
      let fused = Fuse.fuse g in
      let matches =
        List.fold_left (fun acc (_, n) -> acc + n) 0 (Fuse.pattern_counts fused)
      in
      Pipeline.bump ~pass:"fuse" "matches" matches;
      (loop, fused))

let stage_schedule arch =
  Pipeline.v ~name:"schedule"
    ~post:(fun cl -> Verify.check_mapping arch cl.dfg cl.mapping)
    (fun (loop, g) -> { source = loop; dfg = g; mapping = Mapper.map_dfg arch g })

let compile_with_unroll (opts : options) uf (k : Kernel.t) =
  let front = Pipeline.(stage_vectorize opts.vector >>> stage_unroll uf) in
  let k = Pipeline.run front k in
  let back =
    Pipeline.(
      stage_extract
      >>> (if opts.fuse then stage_fuse else skip)
      >>> stage_schedule opts.arch)
  in
  {
    kernel = k;
    loops = List.map (Pipeline.run back) k.Kernel.loops;
    unroll = uf;
    vector = opts.vector;
    arch = opts.arch;
    arch_name = opts.arch.Arch.name;
  }

let compile_stats () = Pipeline.stats ()
let reset_stats () = Pipeline.reset ()

let loop_trips (cl : compiled_loop) ~n =
  let per_trip = cl.source.Kernel.step * cl.source.Kernel.vector_width in
  (n + per_trip - 1) / per_trip

let pass_cycles c ~n =
  List.fold_left
    (fun acc cl -> acc + Mapper.loop_cycles cl.mapping ~trips:(loop_trips cl ~n))
    0 c.loops

(* Steady state only: successive channels overlap each loop's prologue. *)
let per_channel_cycles c ~dim =
  List.fold_left
    (fun acc cl -> acc + (loop_trips cl ~n:dim * cl.mapping.Mapper.ii))
    0 c.loops

let compile_runs = Atomic.make 0

let compile_count () = Atomic.get compile_runs

(* Independent re-validation of everything a compile emits, in one sweep.
   [compile_result] no longer calls this — each pipeline pass gates its own
   artifact via a post-condition, so failures name the offending pass — but
   it remains the after-the-fact API for validating a [compiled] you already
   hold (the lint CLI, tests).  Only Error-severity findings are returned;
   advisory Warnings (dead lane placeholders from the division vector split,
   conservative range flags) are not. *)
let verify_compiled (opts : options) (c : compiled) =
  let structural =
    List.concat_map
      (fun cl ->
        Verify.check_loop ~arch:opts.arch ~source:cl.source cl.dfg cl.mapping)
      c.loops
  in
  Finding.errors (Verify.lint_kernel c.kernel @ structural)

(* the best unroll candidate for a kernel that validates *)
let autotune (opts : options) (k : Kernel.t) =
  Atomic.incr compile_runs;
  let candidates =
    match opts.unroll_candidates with [] -> [ 1 ] | l -> l
  in
  let best = ref None in
  let failed = ref [] in
  match
    List.iter
      (fun uf ->
        Pipeline.bump ~pass:"unroll" "candidates" 1;
        match compile_with_unroll opts uf k with
        | compiled -> (
            let cost = pass_cycles compiled ~n:1024 in
            match !best with
            | Some (_, best_cost) when best_cost <= cost -> ()
            | _ -> best := Some (compiled, cost))
        | exception Mapper.Unmappable msg -> failed := (uf, msg) :: !failed)
      candidates
  with
  | () -> (
      match !best with
      | Some (c, _) -> Ok c
      | None ->
          Error
            (Picachu_error.Unmappable
               { kernel = k.Kernel.name; reasons = List.rev !failed }))
  | exception Pipeline.Pass_failed { pass; findings } ->
      Error
        (Picachu_error.Verification_failed
           {
             kernel = k.Kernel.name;
             findings = List.map (fun f -> "after " ^ pass ^ ": " ^ f) findings;
           })

let compile_result (opts : options) (k : Kernel.t) =
  match Kernel.validate k with
  | Ok () -> autotune opts k
  | Error e ->
      Error
        (Picachu_error.Verification_failed
           { kernel = k.Kernel.name; findings = [ "invalid kernel: " ^ e ] })

let compile (opts : options) (k : Kernel.t) =
  match compile_result opts k with
  | Ok c -> c
  | Error e -> raise (Picachu_error.Error e)

(* --------------------------------------------- content-addressed cache *)

(* Results are cached by what the pipeline can observe — a digest of the
   canonicalized kernel IR, the architecture's structure and the option
   knobs — so structurally identical kernels share one compile no matter
   what they are called or where they came from (library or user-authored).
   Failures are cached too (negative caching): a kernel known to be
   unmappable on an arch is answered from the table instead of re-running
   the whole II search per request — the fallback tiers of
   [Serving.robust_costs] pay the mapper once, not once per request. *)

let cache : (string, (compiled, Picachu_error.t) result) Hashtbl.t =
  Hashtbl.create 64

let cache_lock = Mutex.create ()
let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0

type cache_stats = { hits : int; misses : int; entries : int }

let cache_stats () =
  Mutex.protect cache_lock (fun () ->
      {
        hits = Atomic.get cache_hits;
        misses = Atomic.get cache_misses;
        entries = Hashtbl.length cache;
      })

let cache_key (opts : options) (k : Kernel.t) =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            Kernel_text.structural_digest k;
            Arch.structural_digest opts.arch;
            string_of_bool opts.fuse;
            string_of_int opts.vector;
            String.concat "," (List.map string_of_int opts.unroll_candidates);
          ]))

let cache_clear () = Mutex.protect cache_lock (fun () -> Hashtbl.reset cache)

let memo_result (opts : options) (k : Kernel.t) =
  let key = cache_key opts k in
  match Mutex.protect cache_lock (fun () -> Hashtbl.find_opt cache key) with
  | Some r ->
      Atomic.incr cache_hits;
      r
  | None ->
      Atomic.incr cache_misses;
      let r = compile_result opts k in
      (* keep the first insertion so concurrent compilers share one value *)
      Mutex.protect cache_lock (fun () ->
          match Hashtbl.find_opt cache key with
          | Some r' -> r'
          | None ->
              Hashtbl.add cache key r;
              r)

let cached_result (opts : options) variant name =
  match Kernels.by_name variant name with
  | k -> memo_result opts k
  | exception Not_found -> Error (Picachu_error.Unknown_kernel name)

let cached (opts : options) variant name =
  match cached_result opts variant name with
  | Ok c -> c
  | Error e -> raise (Picachu_error.Error e)
