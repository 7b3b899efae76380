(** The transfer-engine interface.

    Each context-transfer strategy of the paper lives in its own engine
    module behind this record-of-closures interface: the MigrationManager
    owns the port, the insert/restart lifecycle and the counters, and
    delegates everything strategy-specific — source-side kickoff, wire
    protocol, destination-side assembly — to the engine claiming the
    strategy.  Adding a strategy means adding one engine module and
    listing it in the manager; nothing else changes.

    Engines never stamp {!Report} fields directly: they publish
    {!Mig_event} events on the world bus, and the bus folds them into the
    live report. *)

type arrival = {
  core : Accent_kernel.Context.core;
  rimas : Accent_ipc.Memory_object.t;
      (** fully assembled, in collapsed coordinates, ready for
          InsertProcess *)
  prefetch : int;
  report : Report.t;
  on_complete : (Accent_kernel.Proc.t -> Report.t -> unit) option;
  on_restart : (Accent_kernel.Proc.t -> unit) option;
}
(** What an engine hands back to the manager once the destination side has
    the complete context in hand. *)

type ctx = {
  host : Accent_kernel.Host.t;
  port : Accent_ipc.Port.id;  (** the manager's command port *)
  backing : Backing_server.t;
      (** the manager's own backing server (resident-set/working-set IOUs) *)
  bus : Mig_event.bus;
  dedup : Dedup.t;
      (** the manager's digest-first negotiator; engines route page-data
          sends through {!Dedup.send} and arrivals through
          {!Dedup.resolve} *)
  insert : arrival -> unit;
      (** manager-provided: run InsertProcess and the restart lifecycle *)
  note_received : unit -> unit;
      (** manager-provided: count an inbound migration (a Core or final
          push message arrival) *)
}
(** The manager-side capabilities an engine closes over. *)

type t = {
  name : string;
  claims : Strategy.transfer -> bool;
      (** does this engine implement the given strategy? *)
  start :
    proc:Accent_kernel.Proc.t ->
    dest:Accent_ipc.Port.id ->
    strategy:Strategy.t ->
    report:Report.t ->
    on_complete:(Accent_kernel.Proc.t -> Report.t -> unit) option ->
    on_restart:(Accent_kernel.Proc.t -> unit) option ->
    unit;  (** source side: begin migrating [proc] to [dest] *)
  handle : Accent_ipc.Message.t -> bool;
      (** try to consume a message arriving on the manager's port; [false]
          means "not mine", and the manager asks the next engine *)
  give_up_proc : Accent_ipc.Message.payload -> int option;
      (** when the reliable transport abandons this payload, which
          migration (by proc id) can no longer proceed normally?  [None]
          for payloads whose loss is harmless (e.g. push acks). *)
  debug_stats : unit -> (string * int) list;
      (** sizes of the engine's internal tables (staged stores, in-flight
          round state), for leak tests and diagnostics; engines with no
          state answer [[]] *)
}

exception Abort of string
(** Raised by an engine when a migration cannot proceed (a page value
    vanished mid-round, a staged page never arrived).  Engines catch it at
    their protocol boundaries and turn it into an {!Mig_event.Engine_abort}
    event — it must never escape to the simulation loop. *)

(** {2 Helpers shared by engines} *)

val emit : ctx -> proc_id:int -> Mig_event.kind -> unit
(** Publish an event stamped with the host's current virtual time. *)

val abort_migration : ctx -> proc_id:int -> string -> unit
(** Log and publish {!Mig_event.Engine_abort} for one migration; the event
    fold marks its report [Aborted]/[Degraded]. *)

val freeze_until_quiescent : ctx -> Accent_kernel.Proc.t -> k:(unit -> unit) -> unit
(** Interrupt the process and call [k] once any in-flight fault has
    retired — ExciseProcess refuses a process mid-fault. *)
