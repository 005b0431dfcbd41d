type severity = Error | Warning
type pass = Lint | Dfg_check | Schedule_check | Precision_check

type loc = {
  kernel : string option;
  loop : string option;
  node : int option;
}

type t = {
  pass : pass;
  severity : severity;
  code : string;
  loc : loc;
  message : string;
}

let make ?kernel ?loop ?node pass severity ~code fmt =
  Printf.ksprintf
    (fun message -> { pass; severity; code; loc = { kernel; loop; node }; message })
    fmt

let severity_name = function Error -> "error" | Warning -> "warning"

let pass_name = function
  | Lint -> "lint"
  | Dfg_check -> "dfg"
  | Schedule_check -> "schedule"
  | Precision_check -> "precision"

let pp_loc fmt loc =
  let parts =
    List.filter_map Fun.id
      [
        loc.kernel;
        loc.loop;
        Option.map (Printf.sprintf "%%%d") loc.node;
      ]
  in
  match parts with
  | [] -> ()
  | l -> Format.fprintf fmt " %s" (String.concat " " l)

let pp fmt f =
  Format.fprintf fmt "%s[%s/%s]%a: %s" (severity_name f.severity) (pass_name f.pass)
    f.code pp_loc f.loc f.message

let to_string f = Format.asprintf "%a" pp f

let severity_rank = function Error -> 0 | Warning -> 1

(* total order so finding lists print identically whatever the evaluation
   order (domain-pool sizes, roster sweep parallelism) that produced them *)
let compare a b =
  Stdlib.compare
    ( severity_rank a.severity, a.code, a.loc.kernel, a.loc.loop, a.loc.node,
      pass_name a.pass, a.message )
    ( severity_rank b.severity, b.code, b.loc.kernel, b.loc.loop, b.loc.node,
      pass_name b.pass, b.message )

let sort fs = List.sort compare fs
let errors fs = List.filter (fun f -> f.severity = Error) fs
