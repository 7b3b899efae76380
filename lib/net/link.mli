(** The shared network medium.

    One link connects all hosts of the testbed (a 10 Mbit Ethernet in the
    paper).  Transmissions are fragmented into packets; the medium is a
    single FIFO resource, so concurrent transfers queue and bulk traffic
    delays fault traffic — the contention that makes pure-copy's burst
    behaviour visible in Figure 4-5.

    Every packet goes through {!transmit_frag}, which gives it a fate
    (delivered, corrupted, dropped, delayed) from the link's
    {!Fault_plan} as it leaves the wire.  The default plan delivers
    everything and draws no randomness, which is what the plain
    stop-and-wait NetMsgServer pipeline relies on; installing any other
    plan through [World.create] turns on the reliable transport. *)

type params = {
  bytes_per_ms : float;  (** raw medium bandwidth *)
  latency_ms : float;  (** per-packet propagation + media access *)
  fragment_bytes : int;  (** maximum payload per packet *)
  fragment_overhead_bytes : int;  (** per-packet header on the wire *)
}

val default_params : params
(** 10 Mbit/s, 2 ms latency, 1536-byte fragments with 32 bytes of header. *)

type t

val create :
  ?fault_plan:Fault_plan.t ->
  Accent_sim.Engine.t ->
  params:params ->
  monitor:Transfer_monitor.t ->
  t
(** [fault_plan] defaults to {!Fault_plan.none} (deliver everything,
    consult no randomness). *)

val fault_plan : t -> Fault_plan.t

val transmit_frag :
  t ->
  src:int ->
  dst:int ->
  bytes:int ->
  category:Accent_ipc.Message.category ->
  ?on_wire:(unit -> unit) ->
  (Fault_plan.fate -> unit) ->
  unit
(** Ship one packet of [bytes] payload (plus header) from host [src] to
    host [dst].  The packet occupies the FIFO medium for its serialisation
    time and its wire bytes are charged to the monitor unconditionally —
    dropped packets still burned bandwidth.  [on_wire] fires when the
    packet finishes serialising (before its fate is known); use it for
    flow-control windows.  The continuation fires [latency_ms] (plus any
    reorder delay) later with [Delivered] or [Corrupted], and never fires
    for a dropped packet — detecting the loss is the transport's job. *)

val params_of : t -> params
(** The link's parameters (NetMsgServers size their fragment pipeline to
    the medium's packet size). *)

val fragments_for : params -> int -> int
(** How many packets a transmission of the given size needs.  Always at
    least 1: a 0-byte transmission (a control-only message or a bare ack)
    still sends one header-only packet. *)

val wire_bytes_for : params -> int -> int
(** Bytes on the wire including per-fragment headers. *)

val bytes_sent : t -> int
val fragments_sent : t -> int
val busy_time : t -> Accent_sim.Time.t
