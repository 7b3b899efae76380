(** The local paging disk of one host.

    Stores page values evicted from physical memory and the backing blocks
    of RealMem data.  Purely a content store — the 40.8 ms service time of a
    disk fault is charged by the kernel's cost model, and queueing for the
    disk arm is modelled with a {!Accent_sim.Queue_server} at the host
    level.  Values are immutable, so the store never copies page bytes;
    a symbolic page holds no bytes however long it sits on disk (a
    [Pattern] is its 3-word value, [Zero] nothing). *)

type t
type block_id = int

val create : unit -> t

val alloc : t -> Page.value -> block_id
(** Store the page value and return its block. *)

val read : t -> block_id -> Page.value
(** The block's current value.  Raises [Invalid_argument] for a freed or
    unknown block. *)

val write : t -> block_id -> Page.value -> unit

val free : t -> block_id -> unit
(** Release the block for reuse.  Raises [Invalid_argument
    "Paging_disk.free: double free"] if the block was already freed and
    not since reallocated — a stale free after reallocation would hand
    the same block to two owners. *)

val blocks_in_use : t -> int
