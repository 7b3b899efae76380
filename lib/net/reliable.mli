(** Sliding-window ARQ over the shared link.

    The 1987 NetMsgServer pipeline ({!Netmsgserver.params.flow_window})
    assumes the Ethernet delivers every fragment: its "acknowledgements"
    are zero-cost callbacks that merely pace the sender.  This module is
    the transport that drops that assumption.  Layered between the
    NetMsgServer and the {!Link}, it gives each outbound message a train of
    sequence-numbered fragments, keeps up to a window of them
    unacknowledged, and pays for reliability with real wire traffic:
    acknowledgement packets (cumulative + selective), retransmissions
    after a per-fragment timeout with exponential backoff, duplicate
    suppression at the receiver, and checksum verification of each
    fragment against the message's physically-present page contents.

    Retries are bounded.  A fragment that exhausts {!max_retries} abandons
    its whole message and reports the give-up to the sending NetMsgServer
    — which is how a partitioned network surfaces as a [Degraded] or
    [Aborted] migration instead of a simulation that never terminates.

    The protocol's numbers are the constants below, not settings: no
    experiment varies them, and the paper's measurements have no
    transport of this kind to calibrate them against.  A fragment that
    never gets through is transmitted 9 times; its timers wait
    25 + 50 + 100 + 200 + 400 + 800 + 1600 + 1600 + 1600 = 6,375 ms in
    all, so the give-up comes 6,375 ms plus the sender's CPU charges
    for the 9 transmissions after the first one was queued.  The 8th
    retransmission leaves at 4,775 ms; the last timer runs after it.
    That is comfortably past any single scheduled partition we model as
    "transient".

    Everything is deterministic: the transport draws no randomness of its
    own (all stochastic behaviour lives in the link's {!Fault_plan}), so
    one seed reproduces every timeout, retransmission and give-up. *)

val window : int
(** Fragments a sender may have unacknowledged per message: 8. *)

val ack_bytes : int
(** Payload size of an acknowledgement packet: 32 bytes. *)

val initial_rto_ms : float
(** First retransmit timeout for a fragment: 25 ms. *)

val rto_backoff : float
(** Timeout multiplier per retry: 2 (exponential backoff). *)

val max_rto_ms : float
(** Ceiling on the backed-off timeout: 1600 ms. *)

val max_retries : int
(** Retransmissions per fragment before the message is abandoned: 8. *)

type t

val create :
  Accent_sim.Engine.t ->
  host_id:int ->
  link:Link.t ->
  registry:Net_registry.t ->
  cpu:(service_ms:float -> (unit -> unit) -> unit) ->
  fragment_cost_ms:(bytes:int -> float) ->
  on_deliver:
    (msg:Accent_ipc.Message.t -> wire_bytes:int -> completes:bool -> unit) ->
  on_give_up:(msg:Accent_ipc.Message.t -> dst:int -> unit) ->
  t
(** Registers the host's ARQ inbound entry point with the registry.

    The transport owns sequencing and the wire; the NetMsgServer keeps
    the cost model.  [cpu] submits work to the host's NMS CPU;
    [fragment_cost_ms] prices one (re)transmitted fragment of the given
    payload size; [on_deliver] fires for every accepted (new,
    checksum-verified) data fragment so the receiving NMS can charge
    reassembly cost, with [completes = true] on the fragment that finishes
    the message; [on_give_up] fires at most once per abandoned message.
    Acknowledgements are handled at interrupt level: they cost wire bytes
    and latency but no NMS CPU. *)

val send :
  t ->
  dst:int ->
  msg:Accent_ipc.Message.t ->
  wire_bytes:int ->
  first_fragment_extra_ms:float ->
  unit
(** Ship a message reliably.  [wire_bytes] is the message's full wire
    size (the transport cuts it into link-sized fragments itself);
    [first_fragment_extra_ms] is the sender-side per-message CPU charged
    with fragment 0 (IOU cache setup, chunk processing) — retransmissions
    of fragment 0 do not pay it again.  First transmissions are charged to
    the message's own traffic category; retransmissions to [Retransmit];
    acks to [Ack]. *)

val sacks : got:bool array -> cum:int -> top:int -> int list
(** The selective acks an ack carries: the highest 16 seqs in \[[cum],
    [top]\] with [got] set, ascending (nothing above [top] has arrived).
    An ack walks at most [top - cum + 1] slots, however long the message. *)

(** {2 Accounting} *)

val retransmissions : t -> int
val acks_sent : t -> int

val duplicates : t -> int
(** Data fragments discarded by the receiver as already seen (the
    sender's timeout fired although the fragment had arrived). *)

val checksum_failures : t -> int
(** Fragments discarded because payload corruption broke the checksum.
    Recovered by the sender's retransmit timer, not by a NAK. *)

val give_ups : t -> int
(** Messages abandoned after a fragment exhausted its retries. *)

val reset_accounting : t -> unit
(** Zero the counters above.  Live transfer state is untouched. *)
