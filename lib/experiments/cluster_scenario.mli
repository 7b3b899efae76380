(** Evaluating automatic migration strategies — §6's "creation and
    evaluation of automatic migration strategies ... good load metrics"
    turned into a measurable scenario.

    A batch of compute-bound jobs arrives on one host of an N-host
    cluster.  Co-located jobs contend for the execution CPU, so the
    cluster's throughput depends on whether (and how well) an automatic
    policy spreads them.  Three configurations are compared:

    - no balancing at all;
    - the {!Accent_core.Auto_migrator} with affinity disabled (pure
      load-levelling);
    - the full policy, whose destination choice also discounts hosts that
      already back a candidate's imaginary memory.

    All relocations use copy-on-reference with one page of prefetch — the
    paper's recommended configuration. *)

type config = {
  n_hosts : int;
  n_jobs : int;
  arrival_spread_ms : float;  (** jobs arrive uniformly over this window *)
  job_think_ms : float;  (** per-job compute *)
  seed : int64;
}

val default_config : config

type outcome = {
  label : string;
  makespan_s : float;  (** last completion *)
  mean_turnaround_s : float;
      (** mean per-job arrival-to-finish, over every job that finished,
          relocated ones included *)
  completed : int;  (** jobs that finished: all of them, barring a failure *)
  migrations : int;
  placements : int list;  (** final process count per host *)
}

val compare_policies : ?config:config -> unit -> outcome list
(** The three configurations above. *)

val render : outcome list -> string

(** {2 The open-workload (churn) scenario}

    The datacenter-scale steady state: jobs arrive cluster-wide as a
    Poisson process, land on a uniformly random host, run a short
    reference trace and depart, while a {!Accent_core.Placement_policy}
    daemon migrates continuously.  Every run is a deterministic function
    of [(churn_seed, config)] — results carry no wall-clock fields, so
    the sequential and domain-parallel sweep runners can be asserted
    byte-identical. *)

type churn_config = {
  hosts : int;
  jobs : int;  (** total arrivals over the run *)
  arrival_rate_per_s : float;  (** cluster-wide Poisson arrival rate *)
  job_pages : int;  (** real pages per job *)
  job_refs : int;  (** post-arrival references per job *)
  job_think_ms : float;  (** mean compute per job (exponential) *)
  period_ms : float;  (** policy sampling period *)
  max_migrations : int;
  strategy : Accent_core.Strategy.t;
  churn_seed : int64;
}

val default_churn : churn_config

val churn_job_spec :
  churn_config -> think_ms:float -> int -> Accent_workloads.Spec.t
(** The [i]th churn job's spec: [job_pages] real pages in two runs under
    one VM segment, as many zero-fill pages, [job_refs] references with
    [think_ms] of compute in all. *)

type churn_result = {
  policy_name : string;
  hosts_n : int;
  jobs_submitted : int;
  jobs_completed : int;
  sim_s : float;
  events : int;  (** simulation events executed *)
  migrations : int;
  migration_rate_per_s : float;  (** per simulated second *)
  downtime_ms_p50 : float;
      (** Frozen (or Requested) → Restarted gap, via the event bus *)
  downtime_ms_p99 : float;
  downtime_samples : int;
  wire_bytes : int;
  mean_turnaround_s : float;
  max_host_jobs : int;
      (** most completions any one host served — a placement-skew probe *)
}

val run_churn :
  ?config:churn_config ->
  policy:Accent_core.Placement_policy.t ->
  unit ->
  churn_result

type gc_probe = {
  minor_words : float;  (** minor-heap words allocated over the run *)
  minor_words_per_event : float;
  live_words_after : int;
      (** [(Gc.stat ()).live_words] after releasing departed jobs and a
          full major collection: the whole process's live heap, so it
          also counts whatever the caller holds (module-level data,
          parsed arguments), not the simulated world alone.  It must
          depend on cluster size, not job count. *)
}

val run_churn_gc :
  ?config:churn_config ->
  policy:Accent_core.Placement_policy.t ->
  unit ->
  churn_result * gc_probe
(** {!run_churn} with the allocation meters on.  Kept separate because
    GC counters are per-domain (OCaml 5): folding them into
    [churn_result] would break the sweep's sequential-vs-parallel
    byte-identity.  Single-domain use only. *)

val default_churn_policies : unit -> Accent_core.Placement_policy.t list
(** static, random, threshold, destination-swap. *)

val compare_churn :
  ?config:churn_config ->
  ?domains:int ->
  ?policies:Accent_core.Placement_policy.t list ->
  unit ->
  churn_result list
(** One world per policy, optionally fanned across OCaml domains; the
    result order always follows the policy list. *)

val churn_seed_sweep :
  ?config:churn_config ->
  ?domains:int ->
  policy:Accent_core.Placement_policy.t ->
  seeds:int64 list ->
  unit ->
  churn_result list
(** One independent world per seed, fanned over [domains] OCaml domains
    ({!Accent_util.Domain_pool}) and merged in seed order; the result
    list is identical for any domain count. *)

val churn_json : churn_result -> string
(** One flat JSON object (a BENCH_cluster.json row). *)

val render_churn : ?title:string -> churn_result list -> string
