(** The digest-first transfer negotiator.

    One instance per MigrationManager.  When the host's NetMsgServer has
    dedup enabled, every bulk page-carrying migration message goes
    through {!send}: instead of shipping the page data, the source first
    advertises one digest per page ({!Accent_ipc.Protocol.Mig_digests}),
    the destination checks its {!Accent_net.Content_store} and answers
    with the runs it lacks ([Mig_need]), and only then does the parked
    message leave — with every already-held run replaced by 8-byte
    digest references.  The destination rebuilds the full object with
    {!resolve} before the {!Transfer_engine} stages or inserts it.

    With dedup disabled {!send} builds and sends at the same program
    point and {!resolve} is the identity, so simulations without the
    feature are byte- and id-stream-identical to those before it
    existed. *)

type t

exception Unresolvable of string
(** Raised by {!resolve} when a digest reference cannot be materialised
    (e.g. the store evicted the value and a corrupt refill was rejected).
    The {!Transfer_engine} turns it into an {!Mig_event.Engine_abort} for
    that one migration. *)

val create :
  host:Accent_kernel.Host.t ->
  port:Accent_ipc.Port.id ->
  bus:Mig_event.bus ->
  t
(** [port] is the MigrationManager port need replies return to; the
    store is the host's shared content store. *)

val send :
  t ->
  dest:Accent_ipc.Port.id ->
  proc_id:int ->
  memory:Accent_ipc.Memory_object.t ->
  build:(Accent_ipc.Memory_object.t -> Accent_ipc.Message.t) ->
  unit
(** Ship [memory] to the MigrationManager at [dest], negotiating digests
    first when dedup is on and [memory] carries page data.  [build] must
    construct the final message from the (possibly pruned) object — it
    runs exactly once, immediately when negotiation is skipped. *)

val handle : t -> Accent_ipc.Message.t -> bool
(** The [Mig_digests]/[Mig_need] protocol handler on the
    MigrationManager port; [false] for any other payload. *)

val give_up_proc : Accent_ipc.Message.payload -> int option
(** Map an abandoned negotiation message to its migration. *)

val resolve :
  t -> proc_id:int -> Accent_ipc.Memory_object.t -> Accent_ipc.Memory_object.t
(** Destination side: materialise every digest reference back into page
    data (from the hits staged during the handshake, falling back to the
    content store) and seed the store with the page data that did cross
    the wire.  Identity when dedup is off.

    @raise Unresolvable when a reference cannot be materialised. *)

val debug_stats : t -> (string * int) list
