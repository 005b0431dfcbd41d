(* Spans and counters recorded from the benchmark's own code, around its
   calls into the library — the library itself carries no spans.

   Everything is kept in memory and handed to the caller at the end.  Off
   by default: an untraced worker pays one boolean test per wrapped call.
   The traced run uses a pool of one domain, so the spans of one op nest
   properly on one thread and [Gc.minor_words] sees every allocation. *)

let now_ns () = Monotonic_clock.now ()
let enabled = ref false

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span; -1 for an op span *)
  op : int;  (** op ordinal within the worker; shared by all its spans *)
  start_ns : int64;
  end_ns : int64;
  alloc_words : float;
  charges : (string * (int64 * int)) list;
      (** leaf calls too fine-grained to record one by one, timed and
          counted in aggregate under this span: name -> (ns, calls) *)
}

type open_span = {
  o_id : int;
  o_name : string;
  o_parent : int;
  o_start : int64;
  o_alloc : float;
  o_charges : (string, int64 ref * int ref) Hashtbl.t;
}

let finished : span list ref = ref []
let stack : open_span list ref = ref []
let next_id = ref 0
let current_op = ref 0
let op_counters : (string, float ref) Hashtbl.t = Hashtbl.create 32

let reset () =
  finished := [];
  stack := [];
  next_id := 0;
  Hashtbl.reset op_counters

let span name f =
  if not !enabled then f ()
  else begin
    let o =
      {
        o_id = !next_id;
        o_name = name;
        o_parent = (match !stack with p :: _ -> p.o_id | [] -> -1);
        o_start = now_ns ();
        o_alloc = Gc.minor_words ();
        o_charges = Hashtbl.create 4;
      }
    in
    incr next_id;
    stack := o :: !stack;
    let close () =
      let end_ns = now_ns () in
      stack := List.tl !stack;
      finished :=
        {
          id = o.o_id;
          name;
          parent = o.o_parent;
          op = !current_op;
          start_ns = o.o_start;
          end_ns;
          alloc_words = Gc.minor_words () -. o.o_alloc;
          charges =
            Hashtbl.fold (fun k (ns, n) acc -> (k, (!ns, !n)) :: acc) o.o_charges []
            |> List.sort compare;
        }
        :: !finished
    in
    Fun.protect ~finally:close f
  end

(* Charge [calls] calls taking [dt] ns in all to the leaf layer [name]
   under the innermost open span. *)
let add_charge name dt calls =
  match !stack with
  | [] -> ()
  | o :: _ -> (
      match Hashtbl.find_opt o.o_charges name with
      | Some (ns, n) ->
          ns := Int64.add !ns dt;
          n := !n + calls
      | None -> Hashtbl.add o.o_charges name (ref dt, ref calls))

(* Time [f] as one call of the leaf layer [name]. *)
let charge name f =
  let t0 = now_ns () in
  let r = f () in
  add_charge name (Int64.sub (now_ns ()) t0) 1;
  r

(* Add to a per-op counter; the worker collects and clears them per op. *)
let count name v =
  if !enabled then
    match Hashtbl.find_opt op_counters name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add op_counters name (ref v)

let take_counters () =
  let l = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) op_counters [] in
  Hashtbl.reset op_counters;
  List.sort compare l

let spans () = List.rev !finished
let dur_ns s = Int64.sub s.end_ns s.start_ns

(* The layer a span's self time belongs to: a dotted name is a leaf layer
   in its own right; a bare one (the op, a library entry point) gets its
   ".self" remainder. *)
let layer_of name = if String.contains name '.' then name else name ^ ".self"

type layer_total = { mutable ns : float; mutable alloc_w : float; mutable calls : int }

(* Self time per layer: each span's duration minus its child spans and its
   charged leaf calls; charged calls are layers of their own.  With properly
   nested spans the layers sum exactly to the op spans' total. *)
let layer_totals spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let child_ns = Hashtbl.create 64 and child_alloc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent
            (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.parent))
        in
        add child_ns (Int64.to_float (dur_ns s));
        add child_alloc s.alloc_words
      end)
    spans;
  let totals = Hashtbl.create 16 in
  let bump layer ns alloc calls =
    let t =
      match Hashtbl.find_opt totals layer with
      | Some t -> t
      | None ->
          let t = { ns = 0.0; alloc_w = 0.0; calls = 0 } in
          Hashtbl.add totals layer t;
          t
    in
    t.ns <- t.ns +. ns;
    t.alloc_w <- t.alloc_w +. alloc;
    t.calls <- t.calls + calls
  in
  List.iter
    (fun s ->
      let charged =
        List.fold_left
          (fun acc (leaf, (ns, calls)) ->
            bump leaf (Int64.to_float ns) 0.0 calls;
            acc +. Int64.to_float ns)
          0.0 s.charges
      in
      let get tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.id) in
      bump (layer_of s.name)
        (Int64.to_float (dur_ns s) -. get child_ns -. charged)
        (s.alloc_words -. get child_alloc)
        1)
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] |> List.sort compare

let span_to_json ~round s =
  Json.Obj
    [
      ("id", Num (float s.id));
      ("name", Str s.name);
      ("parent", Num (float s.parent));
      ("op", Num (float s.op));
      ("round", Num (float round));
      ("start_ns", Num (Int64.to_float s.start_ns));
      ("end_ns", Num (Int64.to_float s.end_ns));
      ("alloc_words", Num s.alloc_words);
      ( "charges",
        Obj
          (List.map
             (fun (k, (ns, n)) ->
               (k, Json.Obj [ ("ns", Num (Int64.to_float ns)); ("calls", Num (float n)) ]))
             s.charges) );
    ]

let span_of_json j =
  let num k = Json.to_num (Json.member k j) in
  {
    id = int_of_float (num "id");
    name = Json.to_str (Json.member "name" j);
    parent = int_of_float (num "parent");
    op = int_of_float (num "op");
    start_ns = Int64.of_float (num "start_ns");
    end_ns = Int64.of_float (num "end_ns");
    alloc_words = num "alloc_words";
    charges =
      List.map
        (fun (k, v) ->
          ( k,
            ( Int64.of_float (Json.to_num (Json.member "ns" v)),
              int_of_float (Json.to_num (Json.member "calls" v)) ) ))
        (Json.to_obj (Json.member "charges" j));
  }

(* Chrome trace-event JSON (loads in Perfetto and chrome://tracing): one
   complete event per span, one process per (workload, round), times in µs
   from the earliest span.  Charged leaf calls appear as arguments of the
   span they ran under. *)
let chrome_trace (groups : (string * int * span list) list) =
  let t0 =
    List.fold_left
      (fun acc (_, _, l) -> List.fold_left (fun a s -> min a s.start_ns) acc l)
      Int64.max_int groups
  in
  let us ns = Int64.to_float (Int64.sub ns t0) /. 1e3 in
  let events =
    List.concat
      (List.mapi
         (fun pid (workload, round, spans) ->
           Json.Obj
             [
               ("name", Str "process_name");
               ("ph", Str "M");
               ("pid", Num (float pid));
               ("args", Obj [ ("name", Str (Printf.sprintf "%s round %d" workload round)) ]);
             ]
           :: List.map
                (fun s ->
                  Json.Obj
                    [
                      ("name", Str s.name);
                      ("cat", Str (layer_of s.name));
                      ("ph", Str "X");
                      ("pid", Num (float pid));
                      ("tid", Num 1.0);
                      ("ts", Num (us s.start_ns));
                      ("dur", Num (Int64.to_float (dur_ns s) /. 1e3));
                      ( "args",
                        Obj
                          ([
                             ("op", Json.Num (float s.op));
                             ("id", Num (float s.id));
                             ("parent", Num (float s.parent));
                             ("alloc_kw", Num (s.alloc_words /. 1e3));
                           ]
                          @ List.concat_map
                              (fun (k, (ns, n)) ->
                                [
                                  (k ^ "_ms", Json.Num (Int64.to_float ns /. 1e6));
                                  (k ^ "_calls", Num (float n));
                                ])
                              s.charges) );
                    ])
                spans)
         groups)
  in
  Json.Obj [ ("traceEvents", Arr events); ("displayTimeUnit", Str "ms") ]
