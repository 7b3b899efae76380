(** Crash recovery: checkpoint before migrating, kill the source host
    mid-migration, restore on the survivor.

    The experiment behind [accentctl crashsweep].  For each strategy and
    each kill point (a fraction of the crash-free run's request→restart
    window, calibrated per seed), the process is checkpointed to a durable
    {!Accent_net.Content_store} before the migration starts; at the kill
    point the link partitions permanently, the source's backing server
    dies and the source incarnation stops executing.  The first transport
    give-up or engine abort for the process triggers
    {!Accent_core.Checkpoint.restore} on the destination under a
    doubled-insert-cost model (the survivor is not hardware chosen for the
    process), and the restored process runs its reference trace to the
    end — every page digest-verified on the way back in.

    This is the recovery story for the residual-dependency hazard of
    §4.3.3: a lazily-migrated process normally dies with its source. *)

open Accent_core

type trial = {
  strategy : Strategy.t;
  seed : int64;
  kill_frac : float;  (** where in the clean transfer window the kill lands *)
  kill_ms : float;
  recovered : bool;  (** the checkpoint-restore path was exercised *)
  completed : bool;  (** the process ran its reference trace to the end *)
  integrity_ok : bool;  (** full digest sweep of the durable store passed *)
  recovery_downtime_s : float;
      (** execution stop (freeze, or the kill for a live source, or the
          request for the classic strategies) to restart *)
  clean_downtime_s : float;  (** the same seed's crash-free twin *)
  checkpoint_pages : int;
  report : Report.t;
}

type summary = {
  strategy : Strategy.t;
  trials : int;
  all_completed : bool;
  all_verified : bool;
  p50_s : float;
  p99_s : float;
  clean_p50_s : float;  (** median downtime when nothing crashes *)
}

type t = {
  spec : Accent_workloads.Spec.t;
  seed : int64;
  kill_fracs : float list;
  trials : trial list;
  summaries : summary list;
}

val default_kill_fracs : float list
(** [0.25; 0.5; 0.75]. *)

val run :
  ?seed:int64 ->
  ?seeds:int ->
  ?spec:Accent_workloads.Spec.t ->
  ?kill_fracs:float list ->
  ?strategies:Strategy.t list ->
  unit ->
  t
(** [seeds] worlds per strategy (default 3), each contributing one clean
    twin plus one crash trial per kill fraction. *)

val to_csv : t -> string

val to_json : t -> string
(** Per-strategy summaries as one JSON object — the CI smoke artifact. *)

val render : t -> string
