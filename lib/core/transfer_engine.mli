(** What the transfer engines share.

    The strategies of the paper live in two engines: {!Engine_copy}
    (pure-copy and the lazy variants built on the classic Core/RIMAS
    pair) and {!Engine_push} (pre-copy and hybrid).  The MigrationManager
    owns the port and the insert/restart lifecycle, and starts each
    migration with one exhaustive match on {!Strategy.transfer}: adding
    a strategy means adding a constructor, and the compiler points at the
    manager's match.

    Engines never stamp {!Report} fields directly: they publish
    {!Mig_event} events on the world bus, and the bus folds them into the
    live report. *)

type handoff = {
  report : Report.t;
  prefetch : int;
  on_complete : (Accent_kernel.Proc.t -> Report.t -> unit) option;
  on_restart : (Accent_kernel.Proc.t -> unit) option;
}
(** The destination-bound part of a migration request: every final
    context message (a classic Core, a push final) carries it whole, and
    the manager's insertion consumes it.  No field counts toward any
    message's wire size. *)

type ctx = {
  host : Accent_kernel.Host.t;
  port : Accent_ipc.Port.id;  (** the manager's command port *)
  backing : Backing_server.t;
      (** the manager's own backing server (resident-set/working-set IOUs,
          the hybrid cold tail) *)
  bus : Mig_event.bus;
  dedup : Dedup.t;
      (** the manager's digest-first negotiator; engines route page-data
          sends through {!Dedup.send} and arrivals through
          {!Dedup.resolve} *)
  insert :
    core:Accent_kernel.Context.core ->
    rimas:Accent_ipc.Memory_object.t ->
    handoff ->
    unit;
      (** manager-provided: run InsertProcess on a fully assembled context
          ([rimas] in collapsed coordinates) and the restart lifecycle *)
}
(** The manager-side capabilities an engine closes over. *)

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
