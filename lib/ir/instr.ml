type t = { id : int; op : Op.t; args : int list; offset : int }

let make ?(offset = 0) ~id ~op ~args () = { id; op; args; offset }
