(** The per-host content-addressed page store.

    One instance lives in each host's NetMsgServer and is shared by every
    {!Backing_server} on the host: the NMS's IOU-cache backer and the
    MigrationManager's.  It layers a digest-keyed view over a
    segment/offset view:

    - {b segment/offset}: the authoritative contents of cached and banked
      imaginary segments.  A segment is its extents: one interval map
      from byte ranges to adopted page runs, which never overlap
      (O(log extents) adoption of a run banked after the others,
      per-segment drop), plus the request-answering logic of the backing
      servers ({!read_run}, a run of slices of those extents);

    - {b digest}: every page value this host has seen, across all
      segments and all migrations, keyed by content digest.  This is the
      cache the digest-first handshake ({!Protocol.Mig_digests} /
      [Mig_need]) consults, and it is {e opportunistic}: LRU-bounded to
      [capacity_pages] entries (recency is a stamp-validated FIFO, so a
      touch and an eviction are O(1) amortised), and safe to lose entries
      from at any time, because segment contents reference their values
      directly.

    Pages arriving off the wire enter the digest layer a run at a time
    ({!insert_wire_run}): each page's digest is re-derived from its
    content with no memo and no stored digest, and a page whose name
    does not match is rejected alone.

    With [dedup = false] (the default everywhere) the digest layer is
    never consulted or populated by the segment operations — the
    compatibility guarantee behind dedup being default-off. *)

type t

val create : ?dedup:bool -> ?capacity_pages:int -> unit -> t
(** [capacity_pages] bounds the digest index ([4096] by default, i.e.
    2 MB of 512-byte pages); [0] disables the digest layer cleanly —
    every find misses and inserts drop.  [dedup] controls whether the
    segment operations feed the digest layer. *)

val dedup_enabled : t -> bool
val capacity_pages : t -> int

(** {2 Digest layer} *)

val find : t -> int -> Accent_mem.Page.value option
(** Look a digest up; counts a hit or miss and freshens the entry's LRU
    position. *)

val mem : t -> int -> bool
(** Membership without touching LRU order or the hit/miss counters. *)

val peek : t -> int -> Accent_mem.Page.value option
(** {!find} without touching LRU order or the hit/miss counters. *)

val insert : t -> Accent_mem.Page.value -> unit
(** Remember a locally-produced (trusted) value under its own digest. *)

val insert_wire_run : t -> ?claimed:int array -> Accent_mem.Page_run.t -> int
(** Remember a run of values that arrived off the wire; returns how many
    passed the check.  Every page's digest is re-derived from its content
    ({!Accent_mem.Page_run.checksums}: no memo, no stored digest) and
    checked against its claim ([claimed.(i)], the name the sender
    advertised; the value's own digest when omitted).  A page whose
    digests differ is dropped and the reject counter bumped — a
    poisoned page never enters the store, so it can never serve a later
    digest hit, and the requester refetches.  The rest are stored in
    order.  Raises [Invalid_argument] unless [claimed] has one entry per
    page. *)

val insert_wire : t -> ?claimed:int -> Accent_mem.Page.value -> bool
(** {!insert_wire_run} on a one-page run: [true] iff the value passed
    the check. *)

val verify : t -> bool
(** Integrity sweep: every indexed value's digest, re-derived from the
    value's content, equals its key. *)

val indexed_pages : t -> int

(** {2 Segment/offset layer}

    When [dedup] is on, stored values are also registered in (and
    interned through) the digest layer, so the NMS cache and the backing
    server share one physical copy of any page value they both hold. *)

val put_extent :
  t -> segment_id:int -> offset:int -> Accent_mem.Page_run.t -> unit
(** Adopt a whole run of page values as an extent starting at the
    page-aligned [offset], implicitly declaring the segment.  With dedup
    off the run is referenced, not copied, in O(log extents) when it
    lands after every extent already stored (every bank site appends in
    ascending order).  Raises [Invalid_argument] if the offset is
    unaligned or the run overlaps a stored extent; an empty run is a
    no-op. *)

val put_bytes : t -> segment_id:int -> offset:int -> bytes -> unit
(** Bytes-edge convenience: {!put_extent} of the run the bytes make,
    trailing partial page zero-padded. *)

val read_run :
  t -> segment_id:int -> offset:int -> pages:int -> Accent_mem.Page_run.t
(** The pages at [offset], [offset+512], ... up to the first absent one,
    at most [pages] of them — the service routine for an Imaginary Read
    Request.  Slices of the stored extents, never copies; empty if the
    first page is absent.  [offset] must be page-aligned and
    [offset + pages * 512] must not overflow (the backer checks a
    request's range before it reads). *)

val has_segment : t -> segment_id:int -> bool

val segment_count : t -> int
(** Segments the store holds, whoever banked them. *)

val segment_pages : t -> segment_id:int -> int
(** Pages the segment's extents hold. *)

val drop_segment : t -> segment_id:int -> unit
(** Forgets the segment's offsets but not its digests: dropped content
    still counts as seen. *)

(** {2 Accounting} *)

val hits : t -> int
val misses : t -> int
val insertions : t -> int
val evictions : t -> int
val rejects : t -> int

val interned : t -> int
(** Stores that found the value already present and reused the existing
    physical copy instead of keeping a duplicate. *)
