(** The MigrationManager (paper §3.2).

    One runs on every participating host.  The manager itself is a thin
    coordinator: it binds the command port, starts each migration with
    one exhaustive match on {!Strategy.transfer}, offers every inbound
    message to its two engines and the dedup negotiator in turn, and owns
    the insert/restart lifecycle at the destination.  The transfer
    mechanics live in the engines:

    - {!Engine_copy} — pure-copy, pure-IOU, resident-set and working-set:
      the classic two-message context (Core + RIMAS), differing only in
      how the RIMAS is prepared;
    - {!Engine_push} — pre-copy and hybrid: rounds pushed while the
      process runs, then a freeze residual (hybrid leaves its cold tail
      as IOUs).

    Every phase of every migration is published as a {!Mig_event.t} on the
    manager's bus; the per-migration {!Report.t} is maintained as a fold
    over that stream ({!Mig_event.apply}), so subscribers observe exactly
    the information the report is built from. *)

type t

val create : ?bus:Mig_event.bus -> Accent_kernel.Host.t -> t
(** Bind the manager's command port on the host.  [bus] lets several
    managers share one event stream (as {!World} does); a private bus is
    created when omitted. *)

val port : t -> Accent_ipc.Port.id
val host : t -> Accent_kernel.Host.t

val backing : t -> Backing_server.t
(** The manager's own backing server (used by the resident-set and
    working-set strategies). *)

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
    returned report is stamped as phases complete; [on_restart] fires at
    the destination just before the reincarnated process resumes (e.g. to
    attach an {!Adaptive_prefetch} controller); [on_complete] fires when
    the relocated process finishes its remote execution. *)

val engine_stats : t -> (string * (string * int) list) list
(** The live bookkeeping counters of ["copy"] (the Core/RIMAS arrival
    table), ["push"] (in-flight round state and staged-page stores) and
    ["dedup"] (parked sends and staged hits), in that order.  For tests
    and leak diagnostics. *)
