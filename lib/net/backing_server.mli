(** A backing server for imaginary segments — the one module that answers
    Imaginary Read Requests and Imaginary Segment Death notices.

    "Any process may create an imaginary segment based on one of its ports,
    map all or part of it into its address space and pass this memory to
    another process via an IPC message" (§2.2).  A backing server is that
    process: it owns one port, banks segment pages, answers each read
    request with the requested run of pages after a fixed service delay,
    and retires a segment when its death notice arrives.  A request with
    no reply port, or whose range is empty, negative, unaligned or
    overflowing, is logged and dropped unanswered.

    Two kinds of owner create one each:

    - the {!Netmsgserver}, for its §2.4 IOU cache, with a service time of
      [backing_lookup_ms] (the parameter the backer-load ablation varies).
      It creates its backer lazily, on the first message it caches, and
      {!Netmsgserver.fail_backing} discards it so the next cached message
      gets a fresh one.  Lazy creation matters: a port allocated when the
      NMS is built would shift every later id on the host, proc ids
      included;
    - each MigrationManager, for the pages a resident-set or working-set
      RIMAS leaves behind and the hybrid cold tail, with its own fixed
      service time.

    Applications that want lazy shipment of their own data create one too
    (see examples/lazy_file_server.ml).

    Segment contents are kept in the host's shared {!Content_store} (the
    NetMsgServer's), not a private store: a page value banked by one
    backer and cached by another is stored once, and with dedup on its
    digest is answerable no matter which segment supplied it.  Because
    the store is shared, a server tracks which segment ids it owns and
    drops only those — on death or on {!fail}. *)

type t

val create :
  Accent_sim.Engine.t ->
  ids:Accent_sim.Ids.t ->
  kernel:Accent_ipc.Kernel_ipc.t ->
  registry:Net_registry.t ->
  host_id:int ->
  store:Content_store.t ->
  service_ms:float ->
  t
(** Bind a fresh port homed on [host_id] and serve it from [store].  Each
    read request is answered [service_ms] after it arrives: the latency of
    waking the backing process and walking its maps, charged on the clock
    rather than a CPU (so it is not message-handling time). *)

val port : t -> Accent_ipc.Port.id

val store : t -> Content_store.t
(** The host's shared content store this server banks into. *)

val new_segment : t -> int
(** Allocate a segment id owned by this server. *)

val bank :
  t ->
  segment_id:int ->
  offset:int ->
  Accent_mem.Page_run.t ->
  Accent_ipc.Memory_object.content
(** Adopt a run of page values as the segment's extent at the
    page-aligned [offset] (no copy, see {!Content_store.put_extent}) and
    return the IOU that promises it — every Data→IOU substitution goes
    through here. *)

val put_bytes : t -> segment_id:int -> offset:int -> bytes -> unit
(** Provide segment contents from bytes: one extent at the page-aligned
    [offset], which must not overlap what the segment already holds. *)

val fail : t -> unit
(** Failure injection: drop every owned segment and stop answering, as if
    the backing process crashed.  Mapped-in faulters will time out. *)

(** {2 Accounting} *)

val faults_served : t -> int
val pages_served : t -> int
val segments_alive : t -> int
val deaths_received : t -> int
val reset_accounting : t -> unit
(** Zero the served-fault and served-page counters. *)
