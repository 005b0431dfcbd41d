(** SSA instructions.

    An instruction's [args] are ids of other instructions in the same loop
    body.  The only legal forward (cyclic) reference is the second argument of
    a [Phi], which names the loop-carried value produced later in the body —
    the distance-1 back edge that determines the recurrence-constrained
    minimum initiation interval.

    [offset] is the static address offset of a [Load]/[Store] relative to the
    loop's base index; loop unrolling materializes copies with offsets
    0..UF-1 instead of spending FU slots on address arithmetic, matching
    post-increment addressing in the CGRA tiles. *)

type t = { id : int; op : Op.t; args : int list; offset : int }

val make : ?offset:int -> id:int -> op:Op.t -> args:int list -> unit -> t
