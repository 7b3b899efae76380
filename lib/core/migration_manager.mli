(** The MigrationManager (paper §3.2).

    One runs on every participating host.  The manager is wiring: it
    binds the command port, offers every inbound message to the
    {!Transfer_engine} and then to the {!Dedup} negotiator, turns
    transport give-ups and pager observations into bus events, and
    starts each migration by handing its {!Strategy.transfer} to the
    engine, which owns the transfer mechanics and the destination's
    insert/restart lifecycle.

    Every phase of every migration is published as a {!Mig_event.t} on the
    manager's bus; {!migrate} registers {!Report.apply} on the new
    report as the migration's route, so the report is a fold over that
    stream and subscribers observe exactly the information it is built
    from. *)

type t

val create : bus:Mig_event.bus -> Accent_kernel.Host.t -> t
(** Bind the manager's command port on the host.  Every manager of a
    world publishes on the world's one [bus]. *)

val port : t -> Accent_ipc.Port.id

val backing : t -> Accent_net.Backing_server.t
(** The manager's own backing server (used by the resident-set and
    working-set strategies, and the hybrid cold tail). *)

val backing_service_ms : float
(** The manager's backer answers each read request after 50 ms, so a
    remote fault through it costs the same ~115 ms as one through the
    NetMsgServer cache. *)

val bus : t -> Mig_event.bus
(** The event bus this manager publishes on. *)

val migrate :
  t ->
  proc:Accent_kernel.Proc.t ->
  dest:Accent_ipc.Port.id ->
  strategy:Strategy.t ->
  ?on_complete:(Accent_kernel.Proc.t -> Report.t -> unit) ->
  ?on_restart:(Accent_kernel.Proc.t -> unit) ->
  unit ->
  Report.t
(** Start a migration of [proc] to the manager listening on [dest].  The
    returned report is the live fold of the migration's events, stamped
    as phases complete; its traffic totals stay zero until
    {!Report.settle} snapshots them into a copy.  [on_restart] fires at
    the destination just before the reincarnated process resumes (e.g. to
    attach an {!Adaptive_prefetch} controller); [on_complete] fires when
    the relocated process finishes its remote execution. *)

val engine_stats : t -> (string * (string * int) list) list
(** The live bookkeeping counters of ["transfer"] (source round state and
    destination entries) and ["dedup"] (parked sends and staged hits), in
    that order.  For tests and leak diagnostics. *)
