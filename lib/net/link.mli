(** The shared network medium.

    One link connects all hosts of the testbed (a 10 Mbit Ethernet in the
    paper).  Transmissions are fragmented into packets; the medium is a
    single FIFO resource, so concurrent transfers queue and bulk traffic
    delays fault traffic — the contention that makes pure-copy's burst
    behaviour visible in Figure 4-5.

    Every packet goes through {!transmit_frag}, which gives it a fate
    (delivered, corrupted, dropped, delayed) from the link's
    {!Fault_plan} as it leaves the wire.  A link created without a plan
    delivers everything and draws no randomness, which is what the plain
    stop-and-wait NetMsgServer pipeline relies on; a link created with
    one (any plan, {!Fault_plan.none} included) makes the NetMsgServers
    run the reliable transport.

    Bandwidth and latency are parameters, because the bandwidth ablation
    varies them.  The packet format is fixed: {!fragment_bytes} and
    {!fragment_overhead_bytes} are constants of this module, the
    Ethernet framing of the paper's testbed. *)

type params = {
  bytes_per_ms : float;  (** raw medium bandwidth *)
  latency_ms : float;  (** per-packet propagation + media access *)
}

val default_params : params
(** 10 Mbit/s, 2 ms latency. *)

val fragment_bytes : int
(** Maximum payload per packet: 1536 bytes. *)

val fragment_overhead_bytes : int
(** Header bytes each packet adds on the wire: 32. *)

type t

val create :
  ?fault_plan:Fault_plan.t ->
  Accent_sim.Engine.t ->
  params:params ->
  monitor:Transfer_monitor.t ->
  t
(** Without [fault_plan] the link behaves as under {!Fault_plan.none}:
    it delivers everything and consults no randomness. *)

val fault_plan : t -> Fault_plan.t option
(** The plan the link was created with, if any. *)

val transmit_frag :
  t ->
  src:int ->
  dst:int ->
  bytes:int ->
  category:Accent_ipc.Message.category ->
  (Fault_plan.fate -> unit) ->
  unit
(** Ship one packet of [bytes] payload (plus header) from host [src] to
    host [dst].  The packet occupies the FIFO medium for its serialisation
    time and its wire bytes are charged to the monitor unconditionally —
    dropped packets still burned bandwidth.  The continuation fires
    [latency_ms] (plus any reorder delay) after the packet finishes
    serialising, with [Delivered] or [Corrupted], and never fires for a
    dropped packet — detecting the loss is the transport's job. *)

val params_of : t -> params
(** The link's bandwidth and latency. *)

val fragments_for : int -> int
(** How many packets a transmission of the given size needs.  Always at
    least 1: a 0-byte transmission (a control-only message or a bare ack)
    still sends one header-only packet. *)

val wire_bytes_for : int -> int
(** Bytes on the wire including per-fragment headers. *)

val bytes_sent : t -> int
val fragments_sent : t -> int
val busy_time : t -> Accent_sim.Time.t
