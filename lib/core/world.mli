(** A complete simulated testbed: engine, shared link, registry, traffic
    monitor, and N hosts each running a kernel, NetMsgServer, Pager and
    MigrationManager.

    Every experiment, example and integration test starts by building one
    of these. *)

type t = {
  engine : Accent_sim.Engine.t;
  ids : Accent_sim.Ids.t;
  costs : Accent_kernel.Cost_model.t;
  monitor : Accent_net.Transfer_monitor.t;
  link : Accent_net.Link.t;
  registry : Accent_net.Net_registry.t;
  hosts : Accent_kernel.Host.t array;
  managers : Migration_manager.t array;
  bus : Mig_event.bus;  (** one stream shared by every host's manager *)
}

val create :
  ?seed:int64 ->
  ?costs:Accent_kernel.Cost_model.t ->
  ?fault_plan:Accent_net.Fault_plan.t ->
  n_hosts:int ->
  unit ->
  t
(** Hosts are numbered 0 .. n-1 and named "host0", "host1", ...

    [fault_plan] installs a fault model on the link {e and} thereby
    switches every NetMsgServer to the {!Accent_net.Reliable}
    sliding-window transport, even for {!Accent_net.Fault_plan.none}.
    Without it the wire is perfectly reliable and the 1987 stop-and-wait
    pipeline is used. *)

val host : t -> int -> Accent_kernel.Host.t
val manager : t -> int -> Migration_manager.t

val on_migration_event : t -> (Mig_event.t -> unit) -> unit
(** Subscribe to every migration event published by any host's manager —
    the hook behind [accentctl trace] and per-event instrumentation. *)

val now : t -> Accent_sim.Time.t

val run : ?limit:Accent_sim.Time.t -> t -> Accent_sim.Time.t
(** Run the engine until quiescent (or until [limit]). *)

val audit : t -> unit
(** Check, at quiescence, what every layer promises to let go of once its
    migrations end.  Raises [Failure] listing every violation, one per
    line, each naming the host (or process) and the counter:
    - [frames]: each host's [Phys_mem.in_use] equals
      {!Accent_kernel.Host.resident_pages};
    - [transfer.*], [dedup.*]: every {!Migration_manager.engine_stats}
      counter is 0;
    - [store verify]: {!Accent_net.Content_store.verify} holds on every
      host's store;
    - [store segments]: each host store holds exactly the segments its
      live backers own ({!Accent_kernel.Host.segments_owned});
    - [bus route]: every route the bus still holds is impaired (the
      rule at {!Mig_event.register}): it saw a give-up or an abort, or
      its process was killed by the pager.

    [migrate_and_run], and the cluster, churn and crash-recovery runners,
    call it before they return. *)

val message_seconds : t -> float
(** Total message-manipulation time across all hosts — the Figure 4-4
    quantity. *)

val migrate_and_run :
  ?after_ms:float ->
  t ->
  proc:Accent_kernel.Proc.t ->
  src:int ->
  dst:int ->
  strategy:Strategy.t ->
  Report.t
(** Convenience for the common experiment: reset traffic accounting,
    migrate [proc] from host [src] to host [dst], run the world to
    quiescence (the process executes remotely to completion), then return
    the report settled against this world's monitor and hosts
    ({!Report.settle}).  [after_ms] delays the migration request, for
    live-migration experiments where the process executes at the source
    first.

    If the transport gave up on any message, the settled outcome is
    [Degraded] (restarted at the destination, even if it then finished)
    or [Aborted] (context never delivered) instead of raising.  Raises
    [Failure] only when the process never completed and no give-up
    explains it — that is a bug, not a simulated failure. *)
