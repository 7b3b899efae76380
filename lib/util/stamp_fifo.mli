(** A recency queue of non-negative [int] keys: the LRU order behind
    both physical-memory frame eviction and the per-host digest store.

    Every touch pushes the key at the tail, so push order {e is} recency
    order and the least recently used key is the oldest live pair at the
    head — no heap is needed.  The queue is a power-of-two ring holding
    one [int] per pair, and a pair's stamp is its position: the [n]-th
    push ever made gets stamp [n], shifted down only by compaction.

    There are no cancellation handles.  The owner records each key's
    current stamp, and a pair is live iff [live owner key stamp] holds,
    i.e. the owner still maps [key] to exactly that stamp.  Re-pushing a
    key leaves its older pair stale; removing a key from the owner
    leaves all of its pairs stale.  Stale pairs are dropped when they
    reach the head and squeezed out when they outnumber the live ones
    (at 64 queued pairs or more), the rule [Event_queue] also uses.
    Compaction keeps the live pairs in order and hands each kept key its
    new stamp through [restamp owner key stamp].

    [live] and [restamp] are meant to be top-level functions passed with
    the owner, so a push allocates nothing. *)

type t

val create : unit -> t

val push :
  t ->
  live:('o -> int -> int -> bool) ->
  restamp:('o -> int -> int -> unit) ->
  'o ->
  live_count:int ->
  int ->
  int
(** [push q ~live ~restamp owner ~live_count key] queues [key] at the
    tail and returns its stamp, which the owner must record as [key]'s
    current one.  [live_count] is the number of keys the owner holds;
    the queue compacts first when its stale pairs outnumber them.
    O(1) amortised. *)

val oldest : t -> live:('o -> int -> int -> bool) -> 'o -> int
(** Drop stale pairs off the head and return the key of the oldest live
    pair without removing it, or [-1] when no pair is live. *)

val pop : t -> unit
(** Remove the head pair (the one {!oldest} just returned). *)
