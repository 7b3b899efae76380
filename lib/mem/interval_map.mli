(** Mutable maps from half-open integer intervals to values.

    This is the workhorse behind sparse address spaces and accessibility
    maps: a 4 GB Lisp address space that is 99.9% untouched zero-fill is two
    or three intervals, not eight million page entries.

    Invariants maintained: intervals never overlap, and adjacent intervals
    carrying equal values are coalesced, so the representation of any
    total assignment is canonical.

    It is also the one page-run algebra of the migration wire path: a
    [unit t] is a set of page runs (a push migration's sent pages, a
    RIMAS's kept pages, a dedup need list), and {!fold_pieces} splits a
    range into what such a set covers and the gaps it leaves.

    The map is updated in place.  Its [n] intervals live in sorted
    parallel arrays: the bounds as unboxed ints, the values in a pool
    that never moves, whose free slots are chained through the pool
    itself.  A map costs what it holds: an empty one is a 6-word record
    and no arrays, and up to 8 intervals the arrays hold exactly as
    many entries as the map has needed (4 words an interval, 29 words
    in all for a 5-interval space layout); past 8 they double.  With
    [k] the number of intervals visited:
    - {!find}: one binary search, O(log n), and no allocation;
    - {!fold_range}, {!iter_range}, {!fold_pieces}: one binary search,
      then a linear walk, O(log n + k);
    - {!set}, {!clear}: one binary search and one splice that replaces
      the overlapped entries with at most three (left stub, new
      interval, right stub), then a memmove of the entries after them:
      O(log n) for an append, O(n) ints moved at worst.  The arrays
      grow when full, as above; a {!clear} that empties the map drops
      them.  No other allocation;
    - {!cardinal}: O(1).
    A value is referenced only while some interval carries it.  Do not
    update a map from inside a fold over it. *)

type 'a t

val create : ?equal:('a -> 'a -> bool) -> unit -> 'a t
(** A fresh empty map.  [equal] (default [( = )]) decides when adjacent
    intervals coalesce. *)

val set : 'a t -> lo:int -> hi:int -> 'a -> unit
(** [set t ~lo ~hi v] assigns [v] on [lo, hi), overwriting any previous
    assignment there and splitting partially-overlapped intervals.  Empty
    ranges are a no-op. *)

val clear : 'a t -> lo:int -> hi:int -> unit
(** Remove any assignment on [lo, hi). *)

val find : 'a t -> int -> 'a
(** Value at a point.  Raises [Not_found] if the point is unassigned;
    allocates nothing either way, so lookups on a hot path match on
    [exception Not_found] rather than an option. *)

val ranges : 'a t -> (int * int * 'a) list
(** All intervals in increasing order. *)

val cardinal : 'a t -> int
(** Number of stored intervals. *)

val fold : 'a t -> init:'b -> f:('b -> int -> int -> 'a -> 'b) -> 'b
(** Fold over intervals in increasing order: [f acc lo hi v]. *)

val fold_range : 'a t -> lo:int -> hi:int -> init:'b ->
  f:('b -> int -> int -> 'a -> 'b) -> 'b
(** Like [fold], but over the intersection with [lo, hi); interval bounds
    passed to [f] are clipped. *)

val iter_range : 'a t -> lo:int -> hi:int -> f:(int -> int -> 'a -> unit) ->
  unit

val fold_pieces : 'a t -> lo:int -> hi:int -> init:'b ->
  f:('b -> int -> int -> 'a option -> 'b) -> 'b
(** Walk [lo, hi) in increasing order: [f acc a b (Some v)] for every
    interval clipped to the range and [f acc a b None] for every gap
    between them, so the pieces tile [lo, hi) exactly.  This is the one
    split behind every "which of these pages are in the set" question on
    the migration wire path (sent pages, kept pages, needed pages, IOU
    cover).  O(log intervals + pieces). *)

val total_length : 'a t -> int
(** Sum of interval lengths. *)

val length_where : 'a t -> f:('a -> bool) -> int
(** Summed length of intervals whose value satisfies [f]. *)

val check_invariants : 'a t -> bool
(** For tests: intervals are well-formed, sorted, non-overlapping,
    non-empty, and maximally coalesced; every pool slot is either an
    entry's or on the free chain, once; and an empty map holds no
    arrays. *)
