(** A persistent domain pool and data-parallel combinators.

    The pool is sized by the [PICACHU_DOMAINS] environment variable (default:
    {!Domain.recommended_domain_count}).  A pool of size [n] owns [n - 1]
    worker domains; the calling domain always participates in a parallel
    region, so size 1 means "no domains spawned, run everything inline".

    {2 Determinism contract}

    Every combinator produces results that are bit-identical for any pool
    size, including 1:

    - {!parallel_for} and {!parallel_map_array} assign each index exactly the
      same computation as the sequential loop; callers must write to disjoint
      locations per index, and then only scheduling (never arithmetic)
      depends on the pool.
    - {!parallel_reduce} splits the index range into fixed-size blocks whose
      boundaries depend only on the range (never on the pool size), folds
      each block sequentially, and combines block partials in block order.
      The result is therefore identical across pool sizes, though it may
      differ in the last ulp from an unblocked left fold when the operator
      is not associative.

    Nested parallel regions run sequentially: a worker (or the caller, while
    inside a region) that invokes another combinator executes it inline.
    This both avoids deadlock on the shared pool and keeps the arithmetic of
    nested kernels identical to the sequential path. *)

val size : unit -> int
(** Size of the ambient pool, created on first use and shut down at exit.
    [PICACHU_DOMAINS] sets it when it holds a positive integer (any other
    value raises [Invalid_argument]), otherwise
    {!Domain.recommended_domain_count}.  Either way the size is clamped to
    {!Domain.recommended_domain_count}: the hot kernels are compute-bound,
    so oversubscription never helps and idle domains tax every
    stop-the-world minor collection. *)

val in_parallel : unit -> bool
(** True while executing inside a parallel region (on any domain). *)

val with_pool : size:int -> (unit -> 'a) -> 'a
(** [with_pool ~size f] runs [f] with a fresh pool of [size] installed as
    the ambient pool, then restores the previous ambient pool and shuts the
    temporary one down (also on exception).  Used by the determinism tests
    to pin the pool size regardless of [PICACHU_DOMAINS]; unlike the
    ambient default, [size] is not clamped, so they exercise multi-domain
    pools on any host. *)

val parallel_for : ?chunk:int -> int -> int -> (int -> unit) -> unit
(** [parallel_for lo hi f] runs [f i] for [lo <= i < hi].  Indices are
    dealt to workers in contiguous chunks ([chunk] overrides the automatic
    chunk size).  [f] must write only to locations owned by its index.  The
    first exception raised by any index is re-raised in the caller. *)

val parallel_map_array : ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map], with each element mapped exactly once and results in
    input order. *)

val parallel_reduce :
  ?chunk:int ->
  lo:int ->
  hi:int ->
  init:'a ->
  fold:('a -> 'a -> 'a) ->
  (int -> 'a) ->
  'a
(** [parallel_reduce ~lo ~hi ~init ~fold map]: chunked reduction of [map i]
    over [lo <= i < hi]; see the determinism contract above.  Returns [init]
    on an empty range.  ([map] is positional so the optional argument is
    erased at full application.) *)
