(* Verdicts between two results files, one per (workload, metric).

   A timed metric moves beyond its bound from BENCHMARK.json before it
   counts as better or worse.  When its spread across rounds — the distance
   between quartiles as a share of the median, the larger of the two sides
   — exceeds the bound, the run cannot tell a move from noise: the verdict
   is unresolved unless one side wins every round.  A modelled metric is
   exact for a given seed, so any move counts. *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type side = { value : float; rounds : float list }

(* How much worse [next] is than [base], as a share of [base]: positive is
   worse whichever direction is better. *)
let worsening ~lower_better base next =
  let d =
    if base = next then 0.0
    else if base = 0.0 then Float.infinity *. Float.of_int (compare next base)
    else (next -. base) /. Float.abs base
  in
  if lower_better then d else -.d

let all_beat ~lower_better winners losers =
  winners <> [] && losers <> []
  && List.for_all
       (fun w ->
         List.for_all (fun l -> if lower_better then w < l else w > l) losers)
       winners

let judge ~lower_better ~exact ~bound base next =
  let d = worsening ~lower_better base.value next.value in
  if exact then if d > 0.0 then Worse else if d < 0.0 then Better else Same
  else
    let spread = Float.max (Stat.spread base.rounds) (Stat.spread next.rounds) in
    if spread > bound then
      if all_beat ~lower_better next.rounds base.rounds then Better
      else if all_beat ~lower_better base.rounds next.rounds && d > bound then Worse
      else Unresolved
    else if d > bound then Worse
    else if d < -.bound then Better
    else Same

(* --------------------------------------------------------------- files *)

(* [FILE] is every set in a results file; [FILE@K] its K-th set alone. *)
let load spec =
  let path, pick =
    match String.rindex_opt spec '@' with
    | Some i -> (
        match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
        | Some k -> (String.sub spec 0 i, Some k)
        | None -> (spec, None))
    | None -> (spec, None)
  in
  let sets = Json.to_list (Json.member "sets" (Json.read_file path)) in
  match pick with
  | None -> sets
  | Some k -> (
      match List.nth_opt sets k with
      | Some s -> [ s ]
      | None -> failwith (Printf.sprintf "%s has no set %d" path k))

(* The bound of each end-to-end metric, from BENCHMARK.json. *)
let bounds_of benchmark =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_num (Json.member "bound" m)))
    (Json.to_list (Json.member "end_to_end" benchmark))

(* One side of a metric across sets: the median of the sets' values, and
   every round of every set. *)
let side_of sets workload name =
  let entries =
    List.filter_map
      (fun set ->
        match Json.member_opt workload (Json.member "workloads" set) with
        | None -> None
        | Some w -> Json.member_opt name (Json.member "metrics" w))
      sets
  in
  match entries with
  | [] -> None
  | first :: _ ->
      let value = Stat.median (List.map (fun e -> Json.to_num (Json.member "value" e)) entries) in
      let rounds =
        List.concat_map (fun e -> List.map Json.to_num (Json.to_list (Json.member "rounds" e))) entries
      in
      Some (first, { value; rounds })

let seeds sets =
  List.map (fun s -> Json.to_num (Json.member "seed" (Json.member "meta" s))) sets
  |> List.sort_uniq compare

type row = {
  workload : string;
  metric : string;
  base : float;
  next : float;
  bound : float;
  verdict : verdict;
}

(* Every metric that has a bound or is exact, in the base file's order.  An
   exact metric is comparable only between runs with the same seed;
   otherwise it is unresolved. *)
let rows ~bounds base_sets next_sets =
  let same_inputs = seeds base_sets = seeds next_sets in
  let workloads =
    List.sort_uniq compare
      (List.concat_map (fun s -> List.map fst (Json.to_obj (Json.member "workloads" s))) base_sets)
  in
  List.concat_map
    (fun workload ->
      let names =
        List.concat_map
          (fun s ->
            match Json.member_opt workload (Json.member "workloads" s) with
            | Some w -> List.map fst (Json.to_obj (Json.member "metrics" w))
            | None -> [])
          base_sets
        |> List.fold_left (fun acc n -> if List.mem n acc then acc else acc @ [ n ]) []
      in
      List.filter_map
        (fun metric ->
          match (side_of base_sets workload metric, side_of next_sets workload metric) with
          | Some (entry, b), Some (_, n) ->
              let exact = Json.to_bool (Json.member "exact" entry) in
              let lower_better = Json.to_str (Json.member "better" entry) = "lower" in
              let bound = if exact then Some 0.0 else List.assoc_opt metric bounds in
              Option.map
                (fun bound ->
                  let verdict =
                    if exact && not same_inputs then Unresolved
                    else judge ~lower_better ~exact ~bound b n
                  in
                  { workload; metric; base = b.value; next = n.value; bound; verdict })
                bound
          | _ -> None)
        names)
    workloads

let print_rows rows =
  Printf.printf "%-15s %-22s %14s %14s %9s %7s  %s\n" "workload" "metric" "base" "new" "change"
    "bound" "verdict";
  List.iter
    (fun r ->
      let change =
        if r.base = 0.0 then 0.0 else 100.0 *. (r.next -. r.base) /. Float.abs r.base
      in
      Printf.printf "%-15s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n" r.workload r.metric r.base
        r.next change (100.0 *. r.bound) (verdict_name r.verdict))
    rows
