(** A user-level backing process for imaginary segments.

    "Any process may create an imaginary segment based on one of its ports,
    map all or part of it into its address space and pass this memory to
    another process via an IPC message" (§2.2).  This module is that
    generic facility: it owns a port, stores segment pages, answers
    Imaginary Read Requests with the requested run of pages, and retires
    segments when their death notice arrives.

    Each MigrationManager owns one: the {!Transfer_engine} banks on it the
    pages a resident-set or working-set RIMAS leaves behind and the hybrid
    cold tail.  Applications that want lazy shipment of their own data use
    it directly (see examples/lazy_file_server.ml).

    Segment contents are kept in the host's shared {!Accent_net.Content_store}
    (the NetMsgServer's), not a private store: a page value banked here and
    IOU-cached there is stored once, and with dedup on its digest is
    answerable no matter which segment originally supplied it.  The server
    itself only tracks which segment ids it owns. *)

type t

val create : Accent_kernel.Host.t -> name:string -> t
(** Bind a fresh backing port on the host.  Each request served is
    charged a fixed 50 ms of wakeup-plus-lookup latency, calibrated so a
    remote fault through an application backer costs the same ~115 ms as
    one through the NetMsgServer cache. *)

val port : t -> Accent_ipc.Port.id
val name : t -> string

val new_segment : t -> int
(** Allocate a segment id backed by this server. *)

val put_bytes : t -> segment_id:int -> offset:int -> bytes -> unit
(** Provide segment contents (page-aligned [offset]). *)

val put_page :
  t -> segment_id:int -> offset:int -> Accent_mem.Page.value -> unit
(** Provide one page value at the page-aligned [offset] — no copy. *)

val put_extent :
  t -> segment_id:int -> offset:int -> Accent_mem.Page_run.t -> unit
(** Adopt a whole run of page values starting at the page-aligned
    [offset] in O(1) — see {!Accent_net.Content_store.put_extent}. *)

val store : t -> Accent_net.Content_store.t
(** The host's shared content store this server banks into. *)

val segment_bytes : t -> segment_id:int -> int

val map_into :
  t ->
  Accent_kernel.Host.t ->
  Accent_mem.Address_space.t ->
  at:int ->
  segment_id:int ->
  offset:int ->
  len:int ->
  unit
(** Map [len] bytes of the segment (starting at [offset]) into the space at
    address [at], teaching that host's pager where faults go.  This is the
    "pass an IOU through a message" path condensed to a call — the
    message-borne variant is what migration uses. *)

(** {2 Accounting} *)

val fail : t -> unit
(** Failure injection: drop every segment and stop answering, as if the
    backing process crashed.  Mapped-in faulters will time out. *)

val faults_served : t -> int
val pages_served : t -> int
val segments_alive : t -> int
val deaths_received : t -> int
