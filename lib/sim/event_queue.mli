(** Pending-event set for the discrete-event engine.

    A lazy-invalidation binary min-heap ordered by (time, insertion
    sequence): events at equal times fire in scheduling order, which
    keeps runs deterministic.  Cancelled events are dropped lazily on
    pop, and the heap compacts itself when dead entries outnumber live
    ones — so lossy ARQ runs, whose acknowledgements cancel whole
    windows of backoff timers at once, cannot grow the pending set
    without bound.

    Entries live in parallel arrays with the time keys in a flat
    (unboxed) float array: a push allocates only the 2-word handle, and
    heap comparisons never dereference a boxed float. *)

type 'a t

type handle
(** Names a scheduled event so it can be cancelled. *)

val create : unit -> 'a t
val is_empty : 'a t -> bool

val size : 'a t -> int
(** Live (non-cancelled) events currently queued. *)

val physical_size : 'a t -> int
(** Entries physically held, live or cancelled — bounded by compaction
    at under 2x {!size} (above a small floor); exposed for tests. *)

val compactions : 'a t -> int
(** Times the underlying heap compacted, for tests. *)

val push : 'a t -> time:Time.t -> 'a -> handle
(** Schedule a payload at [time] and return its cancellation handle. *)

val push_unit : 'a t -> time:Time.t -> 'a -> unit
(** {!push} for fire-and-forget events: no handle is created, so the
    push allocates nothing.  Such events cannot be cancelled. *)

val cancel : 'a t -> handle -> unit
(** Cancel the event; a no-op if it already fired or was cancelled.
    Cancelled events are dropped lazily on pop. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live event, or [None] when empty. *)

val pop_payload_exn : 'a t -> 'a
(** Allocation-free {!pop}: the payload alone, whose scheduled time is
    readable via {!last_time} until the next pop.  Raises
    [Invalid_argument] when the queue is empty, so check {!is_empty}
    first. *)

val last_time : 'a t -> Time.t
(** Time of the most recently popped event (0 before any pop). *)

val peek_time : 'a t -> Time.t option
(** Time of the earliest live event without removing it. *)

val next_time : 'a t -> Time.t
(** Unboxed {!peek_time} for the engine's run-limit check; [infinity]
    when the queue is empty. *)
