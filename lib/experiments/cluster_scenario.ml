open Accent_sim
open Accent_kernel
open Accent_core
module R = Result_table

type config = {
  n_hosts : int;
  n_jobs : int;
  arrival_spread_ms : float;
  job_think_ms : float;
  seed : int64;
}

let default_config =
  {
    n_hosts = 3;
    n_jobs = 6;
    arrival_spread_ms = 5_000.;
    job_think_ms = 40_000.;
    seed = 42L;
  }

type outcome = {
  label : string;
  makespan_s : float;
  mean_turnaround_s : float;
  completed : int;
  migrations : int;
  placements : int list;
}

let job_spec config i =
  {
    Accent_workloads.Spec.name = Printf.sprintf "job%d" i;
    description = "cluster batch job";
    real_bytes = 128 * 1024;
    total_bytes = 512 * 1024;
    rs_bytes = 64 * 1024;
    touched_real_pages = 100;
    rs_touched_overlap = 70;
    real_runs = 5;
    vm_segments = 3;
    pattern =
      Accent_workloads.Access_pattern.Hot_cold
        { hot_fraction = 0.4; hot_prob = 0.85 };
    refs = 800;
    total_think_ms = config.job_think_ms;
    zero_touch_pages = 4;
    base_addr = 0x40000 + (i * 4 * 1024 * 1024);
  }

(* Mean from the accumulator's running total — the same sum/length
   formula the retained-list implementation used. *)
let acc_mean acc =
  let n = Accent_util.Stats.count acc in
  if n = 0 then 0. else Accent_util.Stats.total acc /. float_of_int n

(* A migration's insert installs its own completion callback on the new
   incarnation, so the arrival-time [on_complete] never fires for a job
   that moved.  Both runners therefore harvest the relocated jobs from
   the host tables after the run: excision removes the stale source
   incarnation from its host table, so each job id survives on exactly
   the host where it ended up.  [arrived] maps the ids not yet counted to
   their arrival times; [f] gets the final host and the turnaround. *)
let harvest_relocated world arrived ~f =
  Array.iteri
    (fun h host ->
      List.iter
        (fun p ->
          match (Hashtbl.find_opt arrived p.Proc.id, p.Proc.finished_at) with
          | Some t0, Some t when p.Proc.pcb.Pcb.status = Pcb.Terminated ->
              f h (Time.to_seconds (Time.diff t t0))
          | _ -> ())
        (Host.procs host))
    world.World.hosts

let run ?(config = default_config) ~policy ~label () =
  let world = World.create ~seed:config.seed ~n_hosts:config.n_hosts () in
  let h0 = World.host world 0 in
  let turnarounds = Accent_util.Stats.moments_only () in
  let arrived : (int, Time.t) Hashtbl.t = Hashtbl.create 16 in
  (* jobs arrive staggered on host 0 and start executing there *)
  List.iteri
    (fun i spec ->
      let arrival =
        config.arrival_spread_ms *. float_of_int i
        /. float_of_int (max 1 (config.n_jobs - 1))
      in
      ignore
        (Engine.schedule world.World.engine ~delay:(Time.ms arrival)
           (fun () ->
             let proc = Accent_workloads.Spec.build h0 spec in
             Hashtbl.replace arrived proc.Proc.id (Time.ms arrival);
             proc.Proc.on_complete <-
               Some
                 (fun p ->
                   match p.Proc.finished_at with
                   | Some t ->
                       Hashtbl.remove arrived p.Proc.id;
                       Accent_util.Stats.add turnarounds
                         (Time.to_seconds (Time.diff t (Time.ms arrival)))
                   | None -> ());
             Proc_runner.start h0 proc)))
    (List.init config.n_jobs (job_spec config));
  let migrator = Option.map (Auto_migrator.start world) policy in
  ignore (World.run world);
  World.audit world;
  harvest_relocated world arrived ~f:(fun _ s ->
      Accent_util.Stats.add turnarounds s);
  {
    label;
    makespan_s = Time.to_seconds (World.now world);
    mean_turnaround_s = acc_mean turnarounds;
    completed = Accent_util.Stats.count turnarounds;
    migrations =
      Option.value ~default:0
        (Option.map Auto_migrator.migrations_triggered migrator);
    placements =
      List.init config.n_hosts (fun i ->
          Host.proc_count (World.host world i));
  }

let compare_policies ?(config = default_config) () =
  let base_policy =
    {
      Auto_migrator.default_policy with
      Auto_migrator.period_ms = 2_000.;
      max_migrations = config.n_jobs;
    }
  in
  [
    run ~config ~policy:None ~label:"unmanaged" ();
    run ~config
      ~policy:
        (Some
           {
             base_policy with
             Auto_migrator.placement =
               Placement_policy.threshold ~affinity_weight:0. ();
           })
      ~label:"load-levelling" ();
    run ~config ~policy:(Some base_policy) ~label:"load + affinity" ();
  ]

(* ======================================================================
   The open-workload (churn) scenario: the datacenter-scale steady state.

   Jobs arrive cluster-wide as a Poisson process, land on a uniformly
   random host, execute a short reference trace and depart.  A placement
   policy daemon ticks throughout, so load-driven migration is the
   steady state rather than a one-shot experiment.  Everything is a
   deterministic function of (seed, config): the churn_result carries no
   wall-clock fields, which is what lets the parallel sweep harness
   assert byte-identical results against the sequential runner.
   ====================================================================== *)

type churn_config = {
  hosts : int;
  jobs : int;  (** total arrivals over the run *)
  arrival_rate_per_s : float;  (** cluster-wide Poisson arrival rate *)
  job_pages : int;  (** real pages per job *)
  job_refs : int;  (** post-arrival references per job *)
  job_think_ms : float;  (** mean compute per job (exponential) *)
  period_ms : float;  (** policy sampling period *)
  max_migrations : int;
  strategy : Strategy.t;
  churn_seed : int64;
}

let default_churn =
  {
    hosts = 100;
    jobs = 2_000;
    arrival_rate_per_s = 50.;
    job_pages = 16;
    job_refs = 40;
    job_think_ms = 4_000.;
    period_ms = 2_000.;
    max_migrations = max_int;
    strategy = Strategy.pure_iou ~prefetch:1 ();
    churn_seed = 42L;
  }

type churn_result = {
  policy_name : string;
  hosts_n : int;
  jobs_submitted : int;
  jobs_completed : int;
  sim_s : float;
  events : int;
  migrations : int;
  migration_rate_per_s : float;  (** per simulated second *)
  downtime_ms_p50 : float;
  downtime_ms_p99 : float;
  downtime_samples : int;
  wire_bytes : int;
  mean_turnaround_s : float;
  max_host_jobs : int;
      (** most completions any one host served — a placement-skew probe *)
}

let churn_job_spec config ~think_ms i =
  let p = max 4 config.job_pages in
  let page = Accent_mem.Page.size in
  let touched = max 2 (p / 2) in
  let rs = max 2 (p / 2) in
  let overlap = min touched (max 1 (p / 4)) in
  {
    Accent_workloads.Spec.name = "j" ^ Int.to_string i;
    description = "churn job";
    real_bytes = p * page;
    total_bytes = 2 * p * page;
    rs_bytes = rs * page;
    touched_real_pages = touched;
    rs_touched_overlap = overlap;
    real_runs = 2;
    vm_segments = 1;
    pattern =
      Accent_workloads.Access_pattern.Hot_cold
        { hot_fraction = 0.5; hot_prob = 0.8 };
    refs = max config.job_refs touched;
    total_think_ms = think_ms;
    zero_touch_pages = 1;
    base_addr = 0x40000;
  }

(* The churn body proper.  Also hands back the world and the arrival
   table so [run_churn_gc] can measure the retained live heap after
   releasing everything the steady state says should be gone. *)
let run_churn_aux ?(config = default_churn) ~(policy : Placement_policy.t) () =
  let world = World.create ~seed:config.churn_seed ~n_hosts:config.hosts () in
  let engine = world.World.engine in
  let arrivals_rng = Engine.rng engine "cluster-arrivals" in
  let placement_rng = Engine.rng engine "cluster-placement" in
  let think_rng = Engine.rng engine "cluster-think" in
  let submitted = ref 0 in
  (* arrival stamps by proc id; completions are counted by scanning the
     host tables after the run rather than via [on_complete], because a
     migration's insert installs its own completion callback on the new
     incarnation and the arrival-time one would be lost *)
  let arrived : (int, Time.t) Hashtbl.t = Hashtbl.create 1024 in
  (* downtime = Frozen (or Requested, for the stop-and-ship strategies)
     to Restarted, observed on the event bus *)
  let mig_start : (int, Time.t) Hashtbl.t = Hashtbl.create 256 in
  (* streams: exact (and byte-identical to the old retained list) below
     the default capacity, sketch-bounded beyond it *)
  let downtimes_ms = Accent_util.Stats.create () in
  World.on_migration_event world (fun ev ->
      match ev.Mig_event.kind with
      | Mig_event.Requested _ ->
          Hashtbl.replace mig_start ev.Mig_event.proc_id ev.Mig_event.at
      | Mig_event.Frozen _ ->
          Hashtbl.replace mig_start ev.Mig_event.proc_id ev.Mig_event.at
      | Mig_event.Restarted -> (
          match Hashtbl.find_opt mig_start ev.Mig_event.proc_id with
          | Some t0 ->
              Accent_util.Stats.add downtimes_ms
                (Time.to_ms (Time.diff ev.Mig_event.at t0));
              Hashtbl.remove mig_start ev.Mig_event.proc_id
          | None -> ())
      | _ -> ());
  let interarrival_ms = 1_000. /. Float.max 1e-6 config.arrival_rate_per_s in
  let completed = ref 0 in
  let turnarounds = Accent_util.Stats.moments_only () in
  let per_host_completions = Array.make config.hosts 0 in
  let rec arrive i =
    if i < config.jobs then begin
      let host_id = Accent_util.Rng.int placement_rng config.hosts in
      let host = World.host world host_id in
      let think_ms =
        Float.max 1. (Accent_util.Rng.exponential think_rng config.job_think_ms)
      in
      let spec = churn_job_spec config ~think_ms i in
      let proc = Accent_workloads.Spec.build host spec in
      incr submitted;
      let t0 = World.now world in
      Hashtbl.replace arrived proc.Proc.id t0;
      (* Departing jobs leave the cluster: account for the completion and
         release the dead incarnation right away, so the live heap — and
         with it the major-GC marking bill every surviving event pays —
         stays a function of cluster size rather than of how many jobs
         have ever run.  A migration's insert replaces this callback on
         the new incarnation, so relocated jobs are still harvested from
         the host tables after the run, exactly as before; and since a
         terminated process is invisible to live_proc_count, movability
         and the policy snapshot alike, releasing it changes no
         simulation event. *)
      proc.Proc.on_complete <-
        Some
          (fun p ->
            match p.Proc.finished_at with
            | Some t ->
                incr completed;
                Accent_util.Stats.add turnarounds
                  (Time.to_seconds (Time.diff t t0));
                per_host_completions.(host_id) <-
                  per_host_completions.(host_id) + 1;
                Hashtbl.remove arrived p.Proc.id;
                Host.remove_proc host p;
                (match p.Proc.space with
                | Some space -> Host.drop_space host space
                | None -> ())
            | None -> ());
      Proc_runner.start host proc;
      Engine.post engine
        ~delay:(Time.ms (Accent_util.Rng.exponential arrivals_rng interarrival_ms))
        (fun () -> arrive (i + 1))
    end
  in
  Engine.post engine ~delay:Time.zero (fun () -> arrive 0);
  let live () =
    !submitted < config.jobs
    || Array.exists (fun h -> Host.live_proc_count h > 0) world.World.hosts
  in
  let migrator =
    Auto_migrator.start ~live world
      {
        Auto_migrator.period_ms = config.period_ms;
        max_migrations = config.max_migrations;
        strategy = config.strategy;
        placement = policy;
      }
  in
  ignore (World.run world);
  World.audit world;
  let sim_s = Time.to_seconds (World.now world) in
  let migrations = Auto_migrator.migrations_triggered migrator in
  harvest_relocated world arrived ~f:(fun h s ->
      incr completed;
      Accent_util.Stats.add turnarounds s;
      per_host_completions.(h) <- per_host_completions.(h) + 1);
  let result =
    {
      policy_name = Placement_policy.name policy;
      hosts_n = config.hosts;
      jobs_submitted = !submitted;
      jobs_completed = !completed;
      sim_s;
      events = Engine.events_executed engine;
      migrations;
      migration_rate_per_s =
        (if sim_s <= 0. then 0. else float_of_int migrations /. sim_s);
      downtime_ms_p50 = Accent_util.Stats.percentile downtimes_ms 50.;
      downtime_ms_p99 = Accent_util.Stats.percentile downtimes_ms 99.;
      downtime_samples = Accent_util.Stats.count downtimes_ms;
      wire_bytes =
        Accent_net.Transfer_monitor.bytes_total world.World.monitor;
      mean_turnaround_s = acc_mean turnarounds;
      max_host_jobs = Array.fold_left max 0 per_host_completions;
    }
  in
  (result, world, arrived)

let run_churn ?config ~policy () =
  let result, _world, _arrived = run_churn_aux ?config ~policy () in
  result

type gc_probe = {
  minor_words : float;
  minor_words_per_event : float;
  live_words_after : int;
}

(* [run_churn] with the allocation meters on.  Kept separate so
   churn_result stays a pure function of (seed, config): GC counters are
   per-domain in OCaml 5, and folding them into the result would break
   the sweep harness's sequential-vs-parallel identity assertion. *)
let run_churn_gc ?config ~policy () =
  let minor_before = Gc.minor_words () in
  let result, world, arrived = run_churn_aux ?config ~policy () in
  let minor_after = Gc.minor_words () in
  (* Departed jobs leave the cluster in the steady state, so release
     everything the harvest kept them rooted for: their host-table
     entries and address spaces, and the arrival stamps.  What remains
     live after a full major must then be the world itself — a function
     of cluster size, not of how many jobs ever ran (the old
     retain-every-sample Stats broke exactly this). *)
  Array.iter
    (fun host ->
      List.iter
        (fun p ->
          if p.Proc.pcb.Pcb.status = Pcb.Terminated then begin
            Host.remove_proc host p;
            match p.Proc.space with
            | Some space -> Host.drop_space host space
            | None -> ()
          end)
        (Host.procs host))
    world.World.hosts;
  Hashtbl.reset arrived;
  Gc.full_major ();
  let live_words_after = (Gc.stat ()).Gc.live_words in
  (* the world must stay rooted through the measurement *)
  ignore (Sys.opaque_identity world);
  let minor_words = minor_after -. minor_before in
  ( result,
    {
      minor_words;
      minor_words_per_event =
        (if result.events = 0 then 0.
         else minor_words /. float_of_int result.events);
      live_words_after;
    } )

let default_churn_policies () =
  [
    Placement_policy.static ();
    Placement_policy.random ();
    Placement_policy.threshold ();
    Placement_policy.destination_swap ();
  ]

let compare_churn ?(config = default_churn) ?(domains = 1) ?policies () =
  let policies =
    match policies with Some p -> p | None -> default_churn_policies ()
  in
  (* each policy gets its own world, so the comparison itself can fan
     across domains *)
  Accent_util.Domain_pool.map_list ~domains
    (fun policy -> run_churn ~config ~policy ())
    policies

let churn_json r =
  Printf.sprintf
    {|{"policy": "%s", "hosts": %d, "jobs_submitted": %d, "jobs_completed": %d, "sim_s": %.3f, "events": %d, "migrations": %d, "migration_rate_per_s": %.4f, "downtime_ms_p50": %.3f, "downtime_ms_p99": %.3f, "downtime_samples": %d, "wire_bytes": %d, "mean_turnaround_s": %.3f, "max_host_jobs": %d}|}
    r.policy_name r.hosts_n r.jobs_submitted r.jobs_completed r.sim_s r.events
    r.migrations r.migration_rate_per_s r.downtime_ms_p50 r.downtime_ms_p99
    r.downtime_samples r.wire_bytes r.mean_turnaround_s r.max_host_jobs

let render_churn ?(title = "Cluster churn: placement policies compared")
    results =
  R.text
    (R.table title
       ~keys:[ ("policy", "policy") ]
       [
         R.column "migrations" "migrations" (Fixed 0);
         R.column "rate (/s)" "migration_rate_per_s" (Fixed 3);
         R.column "downtime p50 (ms)" "downtime_ms_p50" (Fixed 1);
         R.column "downtime p99 (ms)" "downtime_ms_p99" (Fixed 1);
         R.column "wire" "wire_bytes" Bytes;
         R.column "turnaround (s)" "mean_turnaround_s" (Fixed 1);
         R.column "done" "done" (Text Right);
       ]
       (List.map
          (fun r ->
            R.row [ r.policy_name ]
              (List.map R.measured
                 [
                   float_of_int r.migrations;
                   r.migration_rate_per_s;
                   r.downtime_ms_p50;
                   r.downtime_ms_p99;
                   float_of_int r.wire_bytes;
                   r.mean_turnaround_s;
                 ]
              @ [
                  R.Label
                    (Printf.sprintf "%d/%d" r.jobs_completed r.jobs_submitted);
                ]))
          results))

(* --- the domain-parallel seed sweep ------------------------------------- *)

(* Fan one churn configuration across seeds, each an independent world,
   merged in seed order.  [domains:1] and [domains:n] produce identical
   result lists (the churn_result is wall-clock-free), which the test
   suite and bench both assert. *)
let churn_seed_sweep ?(config = default_churn) ?(domains = 1)
    ~(policy : Placement_policy.t) ~seeds () =
  Accent_util.Domain_pool.map_list ~domains
    (fun seed ->
      run_churn ~config:{ config with churn_seed = seed } ~policy ())
    seeds

let render outcomes =
  R.text
    (R.table
       "Extension: automatic migration policies (batch of jobs arriving on \
        one host of a cluster; Section 6's future work evaluated)"
       ~keys:[ ("policy", "policy") ]
       [
         R.column "makespan (s)" "makespan_s" (Fixed 1);
         R.column "mean turnaround (s)" "mean_turnaround_s" (Fixed 1);
         R.column "migrations" "migrations" (Fixed 0);
         R.column "final placement" "final_placement" (Text Left);
       ]
       (List.map
          (fun o ->
            R.row [ o.label ]
              (List.map R.measured
                 [
                   o.makespan_s; o.mean_turnaround_s; float_of_int o.migrations;
                 ]
              @ [
                  R.Label
                    (String.concat "/" (List.map string_of_int o.placements));
                ]))
          outcomes))
