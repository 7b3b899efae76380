(** Pending-event set for the discrete-event engine, and its clock.

    A lazy-invalidation binary min-heap ordered by (time, insertion
    sequence): events at equal times fire in scheduling order, which
    keeps runs deterministic.  Cancelled events are dropped lazily on
    pop, and the heap compacts itself when dead entries outnumber live
    ones — so lossy ARQ runs, whose acknowledgements cancel whole
    windows of backoff timers at once, cannot grow the pending set
    without bound.

    The heap holds only immediates (time, sequence, and the index of a
    slot in a payload store), so a sift runs no write barrier.  A
    payload is written to its slot once at push and cleared once at pop
    or cancel, and the handle is an immediate: a push allocates
    nothing.  The time of the last popped event is kept in a cell,
    {!clock}, that the engine shares as its clock. *)

type 'a t

type handle
(** Names a scheduled event so it can be cancelled.  It packs the
    event's slot with its sequence number, so a handle kept past its
    pop never cancels a later event in the same slot. *)

val no_handle : handle
(** A handle that names no event, for a cell that holds a timer only
    while one is armed: {!cancel} ignores it. *)

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

val push_after : 'a t -> delay:Time.t -> 'a -> handle
(** {!push} at the {!clock} time plus [delay], a negative [delay]
    counting as 0. *)

val push_unit : 'a t -> time:Time.t -> 'a -> unit
(** {!push} for events that will never be cancelled. *)

val push_after_at : 'a t -> float array -> int -> 'a -> unit
(** [push_after_at t cell i p] is {!push_after} with [~delay:cell.(i)],
    for an event that will never be cancelled.  The delay is read here,
    so a caller in another module that keeps it in a flat float array
    boxes nothing. *)

val cancel : 'a t -> handle -> unit
(** Cancel the event; a no-op if it already fired or was cancelled, or
    on {!no_handle}.
    The payload is released at once; the heap entry is dropped lazily. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live event, or [None] when empty.
    The clock moves to its time. *)

val pop_payload_exn : 'a t -> 'a
(** Allocation-free {!pop}: the payload alone, whose scheduled time is
    in {!clock} until the next pop.  Raises [Invalid_argument] when the
    queue is empty, so check {!is_empty} first. *)

val clock : 'a t -> float array
(** The queue's clock cell, a singleton: the time of the most recently
    popped event (0 before any pop).  The engine shares it as its clock
    and writes it only to move it forward to a run limit; peeks and
    cancels never move it. *)

val peek_time : 'a t -> Time.t option
(** Time of the earliest live event without removing it. *)

val due : 'a t -> limit:Time.t -> bool
(** Whether a live event is queued at or before [limit]: the engine's
    run-limit check, which returns no float and so boxes none. *)
