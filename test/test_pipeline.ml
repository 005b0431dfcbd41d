(* The staged compilation pipeline: typed passes, per-pass instrumentation,
   and the content-addressed compile cache.

   The headline properties: compiling the same input twice is bit-identical
   and served from the cache; the cache address is structural (names don't
   matter, domain-pool size doesn't matter); per-pass stats account for
   exactly the work the auto-tuner does; and the refactor changed nothing
   observable — the experiments transcript and every emitted mapping are
   golden-pinned. *)

module Kernel = Picachu_ir.Kernel
module Kernels = Picachu_ir.Kernels
module Kernel_text = Picachu_ir.Kernel_text
module Transform = Picachu_ir.Transform
module Arch = Picachu_cgra.Arch
module Mapper = Picachu_cgra.Mapper
module Parallel = Picachu_parallel.Parallel
open Picachu

let opts () = Compiler.picachu_options ()

(* deterministic serialization of everything a compile emits *)
let string_of_compiled (c : Compiler.compiled) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "uf=%d vf=%d arch=%s\n" c.Compiler.unroll c.Compiler.vector
       c.Compiler.arch_name);
  List.iter
    (fun (cl : Compiler.compiled_loop) ->
      let m = cl.Compiler.mapping in
      Buffer.add_string buf
        (Printf.sprintf "  %s ii=%d makespan=%d hops=%d |"
           cl.Compiler.source.Kernel.label m.Mapper.ii m.Mapper.makespan
           m.Mapper.routed_hops);
      Array.iter
        (fun (p : Mapper.placement) ->
          Buffer.add_string buf (Printf.sprintf " %d@%d" p.Mapper.time p.Mapper.tile))
        m.Mapper.schedule;
      Buffer.add_char buf '\n')
    c.Compiler.loops;
  Buffer.contents buf

(* ------------------------------------------------------------- caching *)

let test_memo_bit_identical () =
  let k = Kernels.softmax Kernels.picachu in
  let fresh =
    match Compiler.compile_result (opts ()) k with
    | Ok c -> c
    | Error e -> Alcotest.failf "softmax failed: %s" (Picachu_error.to_string e)
  in
  let a = Compiler.memo_result (opts ()) k in
  let before = Compiler.cache_stats () in
  let b = Compiler.memo_result (opts ()) k in
  let after = Compiler.cache_stats () in
  Alcotest.(check int) "second memo is a hit" (before.Compiler.hits + 1)
    after.Compiler.hits;
  Alcotest.(check int) "second memo adds no miss" before.Compiler.misses
    after.Compiler.misses;
  match (a, b) with
  | Ok ca, Ok cb ->
      Alcotest.(check bool) "hits share one value" true (ca == cb);
      Alcotest.(check string) "memoized compile bit-identical to a fresh one"
        (string_of_compiled fresh) (string_of_compiled ca)
  | _ -> Alcotest.fail "memoized softmax compile failed"

let test_renamed_clone_shares_entry () =
  let k = Kernels.softmax Kernels.picachu in
  let clone = { k with Kernel.name = "softmax_clone_for_cache_test" } in
  Alcotest.(check string) "kernel name is not part of the address"
    (Compiler.cache_key (opts ()) k)
    (Compiler.cache_key (opts ()) clone);
  (* prime with the original, then compile the clone: no pipeline run *)
  ignore (Compiler.memo_result (opts ()) k);
  let runs = Compiler.compile_count () in
  (match Compiler.memo_result (opts ()) clone with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clone failed: %s" (Picachu_error.to_string e));
  Alcotest.(check int) "clone answered from the original's entry" runs
    (Compiler.compile_count ())

let test_options_change_address () =
  let k = Kernels.softmax Kernels.picachu in
  let base = Compiler.cache_key (opts ()) k in
  Alcotest.(check bool) "vector width is part of the address" true
    (base <> Compiler.cache_key (Compiler.picachu_options ~vector:4 ()) k);
  Alcotest.(check bool) "arch is part of the address" true
    (base
    <> Compiler.cache_key
         (Compiler.picachu_options ~arch:(Arch.picachu ~rows:3 ~cols:3 ()) ())
         k);
  (* same structure under a different constructor path shares the address *)
  Alcotest.(check string) "structurally identical archs share the address" base
    (Compiler.cache_key (Compiler.picachu_options ~arch:(Arch.picachu ()) ()) k)

let test_digest_stable_across_pools () =
  let k = Kernels.softmax Kernels.picachu in
  let digests =
    List.map
      (fun size ->
        Parallel.with_pool ~size (fun () ->
            (Kernel_text.structural_digest k, Compiler.cache_key (opts ()) k)))
      [ 1; 2; 4 ]
  in
  match digests with
  | d :: rest ->
      List.iter
        (fun d' ->
          Alcotest.(check (pair string string))
            "digest independent of PICACHU_DOMAINS" d d')
        rest
  | [] -> assert false

let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_backend_changes_address () =
  (* the approximation backend rewrites kernel bodies (Taylor chains vs LUT
     references), so it must be part of the cache address: a Taylor compile
     primed in the cache may never answer for the NLI kernel *)
  let taylor = Kernels.gelu Kernels.picachu in
  let nli = Kernels.gelu Kernels.picachu_nli in
  Alcotest.(check bool) "backend is part of the address" true
    (Compiler.cache_key (opts ()) taylor <> Compiler.cache_key (opts ()) nli);
  ignore (Compiler.memo_result (opts ()) taylor);
  let runs = Compiler.compile_count () in
  (match Compiler.memo_result (opts ()) nli with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "nli gelu failed: %s" (Picachu_error.to_string e));
  Alcotest.(check bool) "nli compile was not served from the taylor entry"
    true
    (Compiler.compile_count () > runs)

let test_nli_roster_compiles () =
  (* every library kernel compiles under the NLI backend on the default
     PICACHU architecture — the tables all fit the tile ROM budget *)
  List.iter
    (fun (k : Kernel.t) ->
      match Compiler.memo_result (opts ()) k with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "nli %s failed: %s" k.Kernel.name
            (Picachu_error.to_string e))
    (Kernels.all Kernels.picachu_nli @ Kernels.extras Kernels.picachu_nli)

let test_lut_capacity_rejection () =
  (* a tile ROM budget smaller than the referenced segment tables must be
     a mapping failure naming the tables, not a silent success *)
  let arch = Arch.with_lut_capacity 128 (Arch.picachu ()) in
  let o = Compiler.picachu_options ~arch () in
  (match Compiler.compile_result o (Kernels.gelu Kernels.picachu_nli) with
  | Ok _ -> Alcotest.fail "gelu nli mapped into a 128-byte LUT budget"
  | Error (Picachu_error.Unmappable { reasons; _ }) ->
      Alcotest.(check bool) "reason names the LUT tables" true
        (List.exists
           (fun (_, msg) ->
             contains_sub msg "LUT tables" && contains_sub msg "nli.gelu")
           reasons)
  | Error e ->
      Alcotest.failf "unexpected error: %s" (Picachu_error.to_string e));
  (* the Taylor form of the same kernel references only the 2 KiB phi
     table, which a 2 KiB budget admits and the 128-byte one rejects *)
  (match
     Compiler.compile_result
       (Compiler.picachu_options
          ~arch:(Arch.with_lut_capacity 2048 (Arch.picachu ())) ())
       (Kernels.gelu Kernels.picachu)
   with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "taylor gelu at 2 KiB failed: %s"
        (Picachu_error.to_string e));
  match Compiler.compile_result o (Kernels.gelu Kernels.picachu) with
  | Ok _ -> Alcotest.fail "taylor gelu mapped into a 128-byte LUT budget"
  | Error (Picachu_error.Unmappable _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Picachu_error.to_string e)

let test_unknown_kernel_no_miss () =
  let before = Compiler.cache_stats () in
  (match Compiler.cached_result (opts ()) Kernels.picachu "nope" with
  | Error (Picachu_error.Unknown_kernel "nope") -> ()
  | _ -> Alcotest.fail "expected Unknown_kernel");
  let after = Compiler.cache_stats () in
  Alcotest.(check int) "unknown kernel is not a cache miss"
    before.Compiler.misses after.Compiler.misses

let test_roster_digests_unique () =
  (* transcript-identity guard: structural sharing across the library would
     hand one kernel another's compile (names differ but artifacts would be
     shared), so the roster must be pairwise structurally distinct *)
  List.iter
    (fun variant ->
      let roster = Kernels.all variant @ Kernels.extras variant in
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (k : Kernel.t) ->
          let d = Kernel_text.structural_digest k in
          (match Hashtbl.find_opt tbl d with
          | Some other ->
              Alcotest.failf "%s and %s are structurally identical"
                other k.Kernel.name
          | None -> ());
          Hashtbl.add tbl d k.Kernel.name)
        roster)
    [ Kernels.picachu; Kernels.picachu_nli; Kernels.Baseline ]

(* ----------------------------------------------------- instrumentation *)

let test_per_pass_stats () =
  Compiler.reset_stats ();
  let k = Kernels.softmax Kernels.picachu in
  let t0 = Unix.gettimeofday () in
  (match Compiler.compile_result (opts ()) k with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "softmax failed: %s" (Picachu_error.to_string e));
  let elapsed = Unix.gettimeofday () -. t0 in
  let stats = Compiler.compile_stats () in
  (* the structural passes in pipeline order, then the on-demand
     format-selection pass (declared but not run by compile_result) *)
  Alcotest.(check (list string))
    "stats rows in declaration order"
    (Compiler.pass_names @ [ "select-format" ])
    (List.map (fun (s : Pipeline.pass_stats) -> s.Pipeline.pass) stats);
  let find name =
    List.find (fun (s : Pipeline.pass_stats) -> s.Pipeline.pass = name) stats
  in
  let counter name s =
    Option.value ~default:0
      (List.assoc_opt name (find s).Pipeline.counters)
  in
  (* 3 unroll candidates; softmax has 3 loops -> 9 per-loop pass runs *)
  Alcotest.(check int) "vectorize runs" 3 (find "vectorize").Pipeline.runs;
  Alcotest.(check int) "unroll runs" 3 (find "unroll").Pipeline.runs;
  Alcotest.(check int) "unroll candidates" 3 (counter "candidates" "unroll");
  Alcotest.(check int) "extract runs" 9 (find "extract").Pipeline.runs;
  Alcotest.(check int) "fuse runs" 9 (find "fuse").Pipeline.runs;
  Alcotest.(check int) "schedule runs" 9 (find "schedule").Pipeline.runs;
  Alcotest.(check bool) "fusion found matches" true
    (counter "matches" "fuse" > 0);
  Alcotest.(check bool) "mapper attempted an II per schedule run" true
    (counter "ii-attempts" "schedule" >= 9);
  List.iter
    (fun (s : Pipeline.pass_stats) ->
      Alcotest.(check bool) (s.Pipeline.pass ^ " wall time sane") true
        (s.Pipeline.wall_s >= 0.0))
    stats;
  (* pass bodies run sequentially inside the compile, so their recorded
     wall times sum to at most the observed end-to-end time *)
  let summed =
    List.fold_left (fun acc (s : Pipeline.pass_stats) -> acc +. s.Pipeline.wall_s)
      0.0 stats
  in
  Alcotest.(check bool) "per-pass wall times bounded by total" true
    (summed <= elapsed +. 1e-3)

let test_dump_after_roundtrip () =
  let k = Kernels.softmax Kernels.picachu in
  let dumps = ref [] in
  Pipeline.set_dump_after
    ~sink:(fun ~pass s -> dumps := (pass, s) :: !dumps)
    (Some "unroll");
  Fun.protect
    ~finally:(fun () ->
      Pipeline.set_dump_after ~sink:(fun ~pass:_ s -> print_string s) None)
    (fun () -> ignore (Compiler.compile_with_unroll (opts ()) 2 k));
  match !dumps with
  | [ ("unroll", text) ] ->
      let parsed = Kernel_text.of_string text in
      Alcotest.(check string)
        "--dump-after unroll round-trips to the transformed kernel"
        (Kernel_text.structural_digest (Transform.unroll_kernel 2 k))
        (Kernel_text.structural_digest parsed)
  | l -> Alcotest.failf "expected exactly one unroll dump, got %d" (List.length l)

let test_pass_failure_names_pass () =
  (* a load offset past the loop step is well-formed IR (it validates) but
     fails the linter's post-condition at the first pass *)
  let k = Kernels.relu Kernels.picachu in
  let loop = List.hd k.Kernel.loops in
  let far (i : Picachu_ir.Instr.t) =
    match i.Picachu_ir.Instr.op with
    | Picachu_ir.Op.Load _ -> { i with Picachu_ir.Instr.offset = 3 }
    | _ -> i
  in
  let bad =
    { k with Kernel.loops = [ { loop with Kernel.body = List.map far loop.Kernel.body } ] }
  in
  match Compiler.compile_result (opts ()) bad with
  | Error (Picachu_error.Verification_failed { findings; _ }) ->
      Alcotest.(check bool) "finding names the offending pass" true
        (findings <> []
        && List.for_all
             (fun f ->
               String.length f > 6 && String.sub f 0 6 = "after ")
             findings)
  | _ -> Alcotest.fail "bad kernel passed the per-pass gate"

let test_invalid_input_rejected () =
  (* only the fusion pass makes fused opcodes: one in the input IR would
     compile, and then fail untyped in the interpreter and the executor *)
  let expect what k =
    match Compiler.memo_result (opts ()) k with
    | Error (Picachu_error.Verification_failed { kernel; findings }) ->
        Alcotest.(check string) (what ^ ": kernel named") "relu" kernel;
        Alcotest.(check bool) (what ^ ": one input finding") true
          (match findings with
          | [ f ] -> String.length f > 15 && String.sub f 0 15 = "invalid kernel:"
          | _ -> false)
    | Ok _ -> Alcotest.failf "%s: compiled" what
    | Error e -> Alcotest.failf "%s: %s" what (Picachu_error.to_string e)
  in
  let before = Compiler.compile_count () in
  expect "fused opcode" (Test_ir.relu_with_fused_select ());
  let relu = Kernels.relu Kernels.picachu in
  expect "undeclared output" { relu with Kernel.outputs = [] };
  Alcotest.(check int) "no pass ran" before (Compiler.compile_count ())

(* ------------------------------------------------------- explore dedup *)

let test_explore_memoization () =
  (* a design point no other test or experiment visits *)
  let evaluate () =
    ignore (Explore.evaluate ~rows:3 ~cols:4 ~cot_share:0.42 ())
  in
  let c0 = Compiler.compile_count () in
  evaluate ();
  let c1 = Compiler.compile_count () in
  evaluate ();
  let c2 = Compiler.compile_count () in
  Alcotest.(check bool) "first visit compiles" true (c1 > c0);
  Alcotest.(check int) "second visit is fully memoized" 0 (c2 - c1);
  (* and a whole sweep over an already-visited grid re-compiles nothing *)
  let sweep () =
    ignore (Explore.sweep ~sizes:[ (3, 4) ] ~cot_shares:[ 0.42; 0.5 ] ())
  in
  sweep ();
  let c3 = Compiler.compile_count () in
  sweep ();
  Alcotest.(check int) "repeat sweep is fully memoized" c3
    (Compiler.compile_count ())

(* ------------------------------------------------------------- goldens *)

let capture_stdout f =
  let path = Filename.temp_file "picachu_golden" ".txt" in
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  s

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* the compiler-relevant subset of the experiments transcript, in the same
   order test/experiments_compiler.golden was assembled in; the cheap ids
   only — the full transcript is surrogate-dominated and diffed manually *)
let golden_ids =
  [ "tab4"; "fig7a"; "fig7b"; "fig7d"; "energy"; "noc"; "mapper"; "dse";
    "ablations" ]

let golden_path name =
  (* dune copies the golden next to the test executable; cwd varies between
     [dune runtest] and a direct [dune exec] *)
  if Sys.file_exists name then name
  else Filename.concat (Filename.dirname Sys.executable_name) name

let test_golden_transcript () =
  let got = capture_stdout (fun () -> List.iter Experiments.print golden_ids) in
  Alcotest.(check string) "experiments transcript byte-identical"
    (read_file (golden_path "experiments_compiler.golden")) got

let mappings_digest_pin = "53e6d6126400f51973ecc8d30a490aaf"

let test_golden_mappings_digest () =
  (* every mapping the compiler emits for the library roster, under all
     three option sets the experiments use, serialized placement by
     placement and pinned by digest: the pipeline refactor must not move a
     single op *)
  let buf = Buffer.create 4096 in
  let add name = function
    | Ok (c : Compiler.compiled) ->
        Buffer.add_string buf
          (Printf.sprintf "%s uf=%d vf=%d arch=%s\n" name c.Compiler.unroll
             c.Compiler.vector c.Compiler.arch_name);
        List.iter
          (fun (cl : Compiler.compiled_loop) ->
            let m = cl.Compiler.mapping in
            Buffer.add_string buf
              (Printf.sprintf "  %s ii=%d makespan=%d hops=%d |"
                 cl.Compiler.source.Kernel.label m.Mapper.ii m.Mapper.makespan
                 m.Mapper.routed_hops);
            Array.iter
              (fun (p : Mapper.placement) ->
                Buffer.add_string buf
                  (Printf.sprintf " %d@%d" p.Mapper.time p.Mapper.tile))
              m.Mapper.schedule;
            Buffer.add_char buf '\n')
          c.Compiler.loops
    | Error e ->
        Buffer.add_string buf
          (Printf.sprintf "%s ERROR %s\n" name (Picachu_error.to_string e))
  in
  let roster variant = Kernels.all variant @ Kernels.extras variant in
  List.iter
    (fun (prefix, variant, o) ->
      List.iter
        (fun (k : Kernel.t) ->
          add (prefix ^ "/" ^ k.Kernel.name) (Compiler.compile_result o k))
        (roster variant))
    [
      ("picachu", Kernels.picachu, Compiler.picachu_options ());
      ("baseline", Kernels.Baseline, Compiler.baseline_options ());
      ("picachu-v4", Kernels.picachu, Compiler.picachu_options ~vector:4 ());
    ];
  Alcotest.(check string) "all emitted mappings byte-identical to the seed"
    mappings_digest_pin
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    ( "pipeline",
      [
        Alcotest.test_case "memoized compile bit-identical" `Quick
          test_memo_bit_identical;
        Alcotest.test_case "renamed clone shares cache entry" `Quick
          test_renamed_clone_shares_entry;
        Alcotest.test_case "options change the cache address" `Quick
          test_options_change_address;
        Alcotest.test_case "digest stable across pool sizes" `Quick
          test_digest_stable_across_pools;
        Alcotest.test_case "unknown kernel adds no miss" `Quick
          test_unknown_kernel_no_miss;
        Alcotest.test_case "backend changes the cache address" `Quick
          test_backend_changes_address;
        Alcotest.test_case "nli roster compiles" `Slow test_nli_roster_compiles;
        Alcotest.test_case "lut capacity rejects oversized tables" `Quick
          test_lut_capacity_rejection;
        Alcotest.test_case "library roster structurally distinct" `Quick
          test_roster_digests_unique;
        Alcotest.test_case "per-pass stats account for the auto-tune" `Quick
          test_per_pass_stats;
        Alcotest.test_case "dump-after round-trips" `Quick
          test_dump_after_roundtrip;
        Alcotest.test_case "verify failure names the pass" `Quick
          test_pass_failure_names_pass;
        Alcotest.test_case "invalid input rejected" `Quick test_invalid_input_rejected;
        Alcotest.test_case "explore memoizes repeat design points" `Slow
          test_explore_memoization;
        Alcotest.test_case "golden: experiments transcript subset" `Slow
          test_golden_transcript;
        Alcotest.test_case "golden: emitted mappings digest" `Slow
          test_golden_mappings_digest;
      ] );
  ]
