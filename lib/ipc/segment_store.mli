(** Content store for imaginary segments held by a backing process.

    Whoever holds Receive rights for a backing port needs the segment's
    pages at hand to answer read requests.  This store keeps them indexed
    by page-aligned segment offset and implements the request-answering
    logic shared by the NetMsgServer cache and application-level backing
    servers: return up to [pages] contiguous pages starting at an offset,
    stopping early at holes or the segment end. *)

type t

val create : unit -> t

val put_page : t -> segment_id:int -> offset:int -> Accent_mem.Page.value ->
  unit
(** Store one page value at the page-aligned [offset].  Implicitly declares
    the segment.  Nothing is copied — values are immutable. *)

val put_extent : t -> segment_id:int -> offset:int ->
  Accent_mem.Page_run.t -> unit
(** Adopt a whole run of page values starting at the page-aligned [offset]
    in O(1) — the run is referenced, not copied.  Raises
    [Invalid_argument] if the run overlaps an extent already stored;
    offsets already present via {!put_page} keep shadowing the extent. *)

val put_bytes : t -> segment_id:int -> offset:int -> bytes -> unit
(** Bytes-edge convenience: store a run of pages; trailing partial page
    zero-padded. *)

val get_page : t -> segment_id:int -> offset:int ->
  Accent_mem.Page.value option

val read_run : t -> segment_id:int -> offset:int -> pages:int ->
  Accent_mem.Page.value list
(** Pages at [offset], [offset+512], ... while present, at most [pages] of
    them — the service routine for {!Protocol.Imaginary_read_request}.
    Empty if the first page is absent. *)

val has_segment : t -> segment_id:int -> bool

val offsets : t -> segment_id:int -> int array
(** All present page offsets of the segment, ascending and distinct —
    O(present pages log present pages), one flat array sorted in place,
    so callers can walk what the store holds instead of probing every
    offset of a range. *)

val segment_pages : t -> segment_id:int -> int
val segment_bytes : t -> segment_id:int -> int

val drop_segment : t -> segment_id:int -> unit
(** Forget a dead segment's pages. *)

val segments : t -> int list
val total_bytes : t -> int
