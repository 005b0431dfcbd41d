(** Typed findings produced by the static-verification passes.

    Every pass of {!Verify} and {!Precision} reports through this one
    channel: a finding carries the pass that produced it, a severity (an
    Error fails the compile gate and [picachu lint]; a Warning is
    advisory), a stable machine-readable [code] (e.g. ["slot-collision"],
    ["prec-overflow"]) that tests and mutant oracles key on, a
    pretty-printable location, and a human-readable message. *)

type severity = Error | Warning

type pass = Lint | Dfg_check | Schedule_check | Precision_check

type loc = {
  kernel : string option;
  loop : string option;  (** loop label, e.g. ["softmax.2"] *)
  node : int option;  (** instruction id or DFG node id *)
}

type t = {
  pass : pass;
  severity : severity;
  code : string;  (** stable finding class, kebab-case *)
  loc : loc;
  message : string;
}

val make :
  ?kernel:string ->
  ?loop:string ->
  ?node:int ->
  pass ->
  severity ->
  code:string ->
  ('a, unit, string, t) format4 ->
  'a
(** [make ~loop:"softmax.2" ~node:4 Schedule_check Error ~code:"timing" fmt ...]
    builds one finding with a printf-style message. *)

val compare : t -> t -> int
(** Deterministic total order: severity (errors first), then code, then
    location, then pass and message. *)

val sort : t list -> t list
(** Sort by {!compare} — gives finding lists a stable, diffable print order
    regardless of the evaluation order that produced them. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val errors : t list -> t list
(** The Error-severity subset — what gates compilation and the lint CLI's
    exit code. *)
