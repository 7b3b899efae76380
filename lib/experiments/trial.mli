(** One migration trial: a fresh two-host world, one representative process
    built on host 0 at its migration point, migrated to host 1 under a
    given strategy and run to remote completion.

    Every number in the reproduced tables and figures comes out of one or
    more of these. *)

type summary = {
  spec : Accent_workloads.Spec.t;
  strategy : Accent_core.Strategy.t;
  report : Accent_core.Report.t;
}
(** What a finished trial hands to the tables and figures: its inputs and
    its report, no world.  A summary holds no simulation state, so a grid
    of them costs a few words per trial; use {!run} when a live world or
    process is needed. *)

type result = {
  spec : Accent_workloads.Spec.t;
  strategy : Accent_core.Strategy.t;
  world : Accent_core.World.t;
  proc : Accent_kernel.Proc.t;  (** the relocated incarnation *)
  report : Accent_core.Report.t;
}
(** A trial with its whole two-host world and the relocated process,
    kept alive as long as the result is. *)

val run :
  ?seed:int64 ->
  ?costs:Accent_kernel.Cost_model.t ->
  ?fault_plan:Accent_net.Fault_plan.t ->
  ?write_fraction:float ->
  ?migrate_after_ms:float ->
  ?on_event:(Accent_core.Mig_event.t -> unit) ->
  spec:Accent_workloads.Spec.t ->
  strategy:Accent_core.Strategy.t ->
  unit ->
  result
(** Under the pre-copy and working-set strategies the process is started
    at the source first (they migrate live processes); the classic
    strategies freeze it at the request, as the paper's trials did —
    unless [migrate_after_ms] is positive, in which case the process runs
    at the source and the migration request fires at that time under any
    strategy.

    [on_event] subscribes to the world's migration event bus before the
    trial starts — the hook behind [accentctl trace]. *)

val summary : result -> summary
(** The result without its world and process. *)

val build_only :
  ?seed:int64 ->
  ?costs:Accent_kernel.Cost_model.t ->
  ?fault_plan:Accent_net.Fault_plan.t ->
  ?write_fraction:float ->
  spec:Accent_workloads.Spec.t ->
  unit ->
  Accent_core.World.t * Accent_kernel.Proc.t
(** Just the world and the process at its migration point, for experiments
    that inspect state without migrating (Tables 4-1 and 4-2). *)
