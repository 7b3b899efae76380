(** Hash tables keyed by [int]: the one int-keyed table the simulator's
    per-reference and per-page tables share (page tables, working-set
    slot maps, the page-digest memo, staged pages, the content store's
    digest index and segments, the paging disk's blocks, the transport's
    outbound messages).

    The table is one flat array that interleaves keys and values: slot
    [i]'s key sits at [2i] as an immediate and its value at [2i + 1], so
    an insert allocates no bucket cell and a probe compares ints.  A key
    is placed by a multiply-xorshift hash and found by linear probing.
    At most 3/4 of the slots are taken; an insert past that doubles the
    capacity.  {!remove} shifts the rest of the probe run back into the
    hole, so no tombstone is left and a table's probes stay as short
    after deletions as after inserts.  [min_int] marks a free slot, so
    it is not a key: {!replace} and {!add} reject it, and every lookup
    reports it absent.

    The array is allocated by the first insert, at the capacity
    {!create} was given, so a table that is created but never filled
    costs one small record.  {!find}, {!mem} and a {!replace} of a
    present key allocate nothing.

    {!iter} and {!fold} visit the entries in slot order, which depends
    on the keys' hashes and on the insertion history: callers that need
    a deterministic order sort what they fold.  The table must not be
    changed while it is being iterated. *)

type 'a t

val create : int -> 'a t
(** [create n] is an empty table whose first allocation holds [n] slots
    (rounded up to a power of two, at least 8). *)

val length : 'a t -> int
(** Number of keys bound. *)

val reset : 'a t -> unit
(** Unbind every key and release the slots, as if freshly created. *)

val find : 'a t -> int -> 'a
(** Raises [Not_found] when the key is unbound. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding.  Raises
    [Invalid_argument] on [min_int]. *)

val add : 'a t -> int -> 'a -> unit
(** {!replace}: a key has at most one binding. *)

val remove : 'a t -> int -> unit
(** Unbind the key; a no-op when it is unbound. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
