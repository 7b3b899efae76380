(** Per-host kernel IPC: local delivery of messages to ports.

    Servers holding Receive rights for a port register a handler; [send]
    charges the kernel's message-handling cost on the host CPU (a shared
    {!Accent_sim.Queue_server}) and then delivers locally or hands off to
    the forwarder (the NetMsgServer) when no local receiver exists — which
    is precisely the transparency that lets Accent extend ports across the
    network with a user-level process (§2.1, §2.4).

    Cost model (per paper §2.1): small messages are physically copied twice
    (in and out of the kernel) at a per-byte cost; messages above the
    copy-on-write threshold are memory-mapped at a per-page cost,
    independent of how much data they carry.

    The four cost terms are constants of this module (1.2 ms per message,
    copy at or below 2048 bytes for 0.0006 ms per byte each way, map above
    it for 0.01 ms per page).  They are fixed because they come from the
    paper's Perq/Accent measurements, not from a setting any experiment
    varies. *)

val copy_threshold : int
(** Message size in bytes at or below which data is copied, not mapped. *)

type t

val create : Accent_sim.Engine.t -> cpu:Accent_sim.Queue_server.t -> t

val bind : t -> Port.id -> (Message.t -> unit) -> unit
(** Install the Receive-rights holder's handler.  Rebinding replaces the
    previous handler (rights moved). *)

val unbind : t -> Port.id -> unit

val has_local_receiver : t -> Port.id -> bool

val set_forwarder : t -> (Message.t -> unit) -> unit
(** Where messages for non-local ports go (the NetMsgServer). *)

val send : t -> Message.t -> unit
(** Queue the message through the kernel.  Delivery (local handler or
    forwarder) happens after the kernel handling cost has been served on
    the host CPU. *)

val handling_cost : Message.t -> Accent_sim.Time.t
(** The cost charged per message; exposed for tests and for the
    excision/insertion cost model. *)

(** {2 Accounting} *)

val delivered_locally : t -> int
val forwarded : t -> int
