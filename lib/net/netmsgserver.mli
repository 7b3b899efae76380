(** The NetMsgServer: Accent's user-level network IPC extension (§2.4).

    One runs on every host.  It receives messages the local kernel cannot
    deliver (no local Receive rights), looks the destination port up in the
    shared registry, fragments the message onto the link, and on the far
    side charges reassembly and hands the message to that kernel.

    Its distinguishing feature for this paper: {b IOU caching}.  On its own
    initiative — unless the sender set the NoIOUs bit — it may retain the
    physically-present portions of an outbound memory object, bank them
    as an imaginary segment on its {!Backing_server}, and transmit only
    IOUs.  A MigrationManager that "doesn't attempt sophisticated address
    space management" gets lazy copy-on-reference shipment simply by
    leaving NoIOUs clear (§3.2).  The backer then fields Imaginary Read
    Requests for the cached data, [backing_lookup_ms] after each arrives,
    until the segment's death notice arrives.

    The NMS owns one backer and one backing port for all its cached
    segments.  It creates them on the first message it caches, not at
    {!create}: a port allocated up front would shift every later id on
    the host, proc ids included.  {!fail_backing} discards the backer, so
    the next cached message gets a fresh one.

    Cost model: each fragment costs 2 ms plus [per_byte_ms] per wire byte
    on each side; each message adds 0.8 ms per memory chunk on each side
    and 3 ms per IOU chunk on the receive side (creating the stand-in
    imaginary object); caching a message costs 100 ms once (creating its
    segment) plus 0.006 ms per page retained.  Those fixed
    terms are constants of this module, calibrated once against the
    paper's Perq/Accent measurements (see [Accent_kernel.Cost_model]);
    no experiment varies them.  The fields of {!params} are the ones an
    experiment does vary.

    The transport is not a setting either: the NMS runs the {!Reliable}
    sliding-window ARQ exactly when its link carries a {!Fault_plan}
    ({!Link.fault_plan}), and the 1987 stop-and-wait pipeline
    otherwise. *)

type params = {
  per_byte_ms : float;  (** protocol cost per wire byte, each side *)
  backing_lookup_ms : float;
      (** the cache backer's service time for one read request *)
  iou_caching : bool;  (** master switch for §2.4 caching behaviour *)
  flow_window : int;
      (** fragments a sender may have unacknowledged at once.  1 =
          stop-and-wait, the 1987 behaviour; larger windows pipeline the
          two NMS CPUs and the wire (a what-if ablation — Theimer reported
          exactly the buffering overruns this risks).  Ignored under the
          reliable transport, whose own window governs. *)
  dedup : bool;
      (** content-addressed transfer: when on, the migration layer
          negotiates digests before shipping page bytes and the NMS feeds
          every page value it sees into its {!Content_store}.  Off by
          default — with it off the wire traffic, costs, and id sequence
          are byte-identical to a build without the feature (the dedup
          experiments turn it on themselves). *)
  dedup_capacity_pages : int;
      (** LRU bound on the digest index of the host's content store;
          0 disables opportunistic digest caching cleanly *)
}

val default_params : params

type t

val create :
  Accent_sim.Engine.t ->
  ids:Accent_sim.Ids.t ->
  host_id:int ->
  kernel:Accent_ipc.Kernel_ipc.t ->
  link:Link.t ->
  registry:Net_registry.t ->
  monitor:Transfer_monitor.t ->
  params:params ->
  t
(** Wires itself up: becomes the kernel's forwarder and registers its
    inbound entry point with the registry. *)

val host_id : t -> int

val reliability : t -> Reliable.t option
(** The host's reliable transport: present exactly when the link was
    created with a fault plan. *)

val content_store : t -> Content_store.t
(** The host's shared content-addressed page store.  Every backing
    server on the host banks into it — the NMS's for its IOU cache, the
    MigrationManager's for its IOUs — so one host stores any given page
    value once no matter which backer banked it. *)

val dedup_enabled : t -> bool
(** Whether [params.dedup] asked for digest-first transfers. *)

val on_transport_give_up : t -> (Accent_ipc.Message.t -> unit) -> unit
(** Register a handler run when the reliable transport abandons an
    outbound message after exhausting its retries.  The MigrationManager
    uses this to mark a migration [Degraded] or [Aborted] rather than
    waiting forever on a message the network will never deliver. *)

val transport_give_ups : t -> int
(** Messages this host's transport has abandoned (0 without ARQ). *)

(** {2 Accounting (drives Figure 4-4)} *)

val busy_time : t -> Accent_sim.Time.t
(** CPU time this NMS has spent handling messages. *)

val messages_handled : t -> int
val bytes_cached : t -> int
(** Data retained by IOU caching so far. *)

val segments_backed : t -> int
(** Cached segments currently alive on the current backer. *)

val faults_served : t -> int
(** Imaginary read requests answered from the cache, by every backer
    this NMS has had. *)

val pages_served : t -> int
(** Pages returned by those replies (> faults when prefetching). *)

val reset_accounting : t -> unit

val fail_backing : t -> unit
(** Failure injection: the backer loses its cached segments and its port
    is unbound and forgotten, as if the machine (or the NetMsgServer
    process) crashed and restarted without its cache.  Outstanding and
    future read requests for those segments go unanswered — the
    residual-dependency hazard of copy-on-reference migration made
    testable.  The next cached message gets a fresh backer. *)
