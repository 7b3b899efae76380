(** Physical memory of one host: a fixed pool of 512-byte frames with LRU
    replacement.

    Frames are owned by (address-space id, page index) pairs.  When an
    allocation finds no free frame, the least-recently-used frame is evicted
    through the registered handler, which is how the owning address space
    learns that its page must move to the paging disk.  The pool keeps no
    per-space index: each address space records its own frames in its
    page table and counts its own resident set.  A frame is one 5-word
    record holding its owner's space id and page inline, its value, and
    its LRU stamp with the dirty bit packed beside it; frame ids are
    dense, and a freed id is the next one handed out (last freed, first
    reused).  Accent used physical
    memory as a disk cache — a behaviour the paper blames for resident-set
    shipment bringing over dead file pages — and this module reproduces
    that: nothing is evicted until the pool is full.

    Victim selection is O(1) amortised, not O(frames): every recency
    bump pushes the frame id on an {!Accent_util.Stamp_fifo} and stamps
    the frame with its position, so push order is LRU order and the
    victim is the oldest live pair at the head.  There are no
    cancellation handles — a pair is live iff its frame still carries
    that stamp — so a bump allocates nothing.  Stamps are unique, which
    makes the order total and the chosen victim identical to the old
    linear scan's. *)

type t
type frame_id = int

val create : frames:int -> t
(** [frames] is the pool size (a 2 MB Perq-class machine has 4096). *)

val set_evict_handler :
  t -> (space_id:int -> page:Page.index -> Page.value -> dirty:bool -> unit) ->
  unit
(** Called with the owner and contents of each frame chosen for eviction,
    before the frame is reused.  Must be set before the pool can
    overflow. *)

val capacity : t -> int
val in_use : t -> int
val free_frames : t -> int

val allocate : t -> space_id:int -> page:Page.index -> Page.value -> frame_id
(** Take a frame for page [page] of space [space_id] (evicting if
    needed), fill it with the given value, and return its id.  Values
    are immutable, so nothing is copied.  The frame starts clean. *)

val free : t -> frame_id -> unit
(** Release a frame without eviction processing (page discarded). *)

val read : t -> frame_id -> Page.value
(** The frame's contents; bumps LRU recency. *)

val peek : t -> frame_id -> Page.value
(** The frame's contents without touching LRU state.  For kernel-side
    gathering (excision, checkpoint, pre-copy): a migration read is not
    a process reference and must not distort eviction order. *)

val write : t -> frame_id -> Page.value -> unit
(** Overwrite contents, mark dirty, bump recency. *)

val touch : t -> frame_id -> unit
(** Bump recency only. *)

val is_dirty : t -> frame_id -> bool

val choose_victim : t -> frame_id option
(** The frame the next eviction would take — the least recently used
    one — without evicting it.  [None] when the pool is empty. *)

val evictions : t -> int
(** Total evictions performed (for tests and reports). *)
