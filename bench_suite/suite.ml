(* The benchmark suite: four workloads, each run as repeated reps in
   fresh processes, with host-side end-to-end metrics, simulated results
   that must repeat exactly, correctness checks, and an optional traced
   rep that splits the time by layer.

   Run from the repository root:
     dune exec bench_suite/suite.exe                      all four, 5 reps each
     dune exec bench_suite/suite.exe -- --trace 1         plus a traced rep each
     dune exec bench_suite/suite.exe -- --workload churn --seconds 25
     dune exec bench_suite/suite.exe -- --smoke           tiny configs, 1 rep

   Flags: --workload W[,W..]  --seed N (42)  --reps N (5)  --seconds T
          --trace 0|1  --smoke  --out FILE.
   With --seconds the reps continue, round-robin, while another round
   fits in T seconds (at least three rounds).  The last line of stdout is
   one JSON object: correct, attempted, failed and the metrics (the
   end-to-end ones, or with --trace 1 the per-layer ones).  The exit code
   is 1 if any check failed.

   bench_suite/README.md describes the workloads, the metrics and how to
   make a performance claim with them. *)

open Accent_core
open Accent_experiments
module Stats = Accent_util.Stats

(* --- workload configurations -------------------------------------------- *)

let workload_names = [ "paper"; "churn"; "swap-storm"; "lossy-wire" ]

(* bench/cluster's big run; smoke mode uses its CI gate configuration *)
let churn_config ~smoke =
  if smoke then
    {
      Cluster_scenario.default_churn with
      Cluster_scenario.hosts = 50;
      jobs = 1_000;
      arrival_rate_per_s = 50.;
      job_think_ms = 2_000.;
    }
  else
    {
      Cluster_scenario.default_churn with
      Cluster_scenario.hosts = 1_000;
      jobs = 20_000;
      arrival_rate_per_s = 400.;
      job_think_ms = 3_000.;
    }

let swap_storm_config ~smoke =
  let base =
    if smoke then
      { (churn_config ~smoke) with Cluster_scenario.job_think_ms = 4_000. }
    else
      {
        Cluster_scenario.default_churn with
        Cluster_scenario.hosts = 400;
        jobs = 8_000;
        arrival_rate_per_s = 200.;
      }
  in
  { base with Cluster_scenario.strategy = Strategy.hybrid () }

(* Hosts and real pages per process of the lossy-wire world.  Four hosts
   give each strategy one host; a rep then takes about 2.5 s on a 2-core
   VM, so a 30 s run holds ~10 reps for its median rather than 3. *)
let lossy_size ~smoke = if smoke then (4, 2_048) else (4, 32_768)

(* A large, mostly untouched image: a quarter of its real pages are
   touched after migration, in sequential runs across two streams.  The
   resident set is kept small enough that both processes of a host fit
   their builds into the host's frame pool. *)
let lossy_spec ~name ~real_pages =
  let page = Accent_mem.Page.size in
  let touched = real_pages / 4 in
  let rs = real_pages / 32 in
  {
    Accent_workloads.Spec.name;
    description = "lossy-wire benchmark image";
    real_bytes = real_pages * page;
    total_bytes = 4 * real_pages * page;
    rs_bytes = rs * page;
    touched_real_pages = touched;
    rs_touched_overlap = rs / 2;
    real_runs = 16;
    vm_segments = 4;
    pattern =
      Accent_workloads.Access_pattern.Sequential
        { streams = 2; revisit = 0.2; run = 16 };
    refs = real_pages / 2;
    total_think_ms = 2_000.;
    zero_touch_pages = 2;
    base_addr = 0x40000;
  }

(* --- what one rep measures ----------------------------------------------- *)

type ctx = { seed : int64; smoke : bool; tr : Spans.t }

type outcome = {
  setup_s : float;  (** host s in world and process construction *)
  run_s : float;  (** host s in the workload proper *)
  live_words : int;  (** live words after a full major, handles held *)
  attempted : int;  (** migrations, or jobs for the churn workloads *)
  failed : int;  (** of those, the ones that did not end Completed *)
  det : (string * string) list;
      (** simulated results: identical in every rep of one seed *)
  layer : (string * float) list;  (** per-layer counters *)
  checks : (string * bool) list;
}

(* time one phase of a rep, as a span and in minor words *)
let phase ctx ~name ~layer f =
  let w0 = Gc.minor_words () in
  let r, s = Measure.time (fun () -> Spans.with_span ctx.tr ~name ~layer f) in
  (r, s, Gc.minor_words () -. w0)

let live_words_holding handle =
  Gc.full_major ();
  let w = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity handle);
  w

let fl = Measure.float_repr
let int_det k v = (k, string_of_int v)
let fl_det k v = (k, fl v)
let is_live (s : Strategy.t) =
  match s.Strategy.transfer with
  | Strategy.Pre_copy _ | Strategy.Working_set _ | Strategy.Hybrid _ -> true
  | Strategy.Pure_copy | Strategy.Pure_iou | Strategy.Resident_set -> false

(* a p99 only where at least ten samples lie beyond it, else 0 *)
let p99 stats = if Stats.count stats >= 1000 then Stats.percentile stats 99. else 0.

(* Tallies of the migration event bus: outcomes, faults, rounds, dedup,
   and simulated end-to-end and down time per migration.  Within one
   world a migration keeps its proc id from Requested to Outcome. *)
module Tally = struct
  type t = {
    mutable requested : int;
    mutable completed : int;
    mutable degraded : int;
    mutable aborted : int;
    mutable faults_zero : int;
    mutable faults_disk : int;
    mutable faults_imag : int;
    mutable precopy_rounds : int;
    mutable dedup_checked : int;
    mutable dedup_hits : int;
    mutable dedup_elided : int;
    mutable sim_s : float;  (** sum of Requested → Outcome *)
    requested_at : (int, float) Hashtbl.t;
    stopped_at : (int, float) Hashtbl.t;  (** Requested, or Frozen *)
    downtime_ms : Stats.t;
  }

  let create () =
    {
      requested = 0;
      completed = 0;
      degraded = 0;
      aborted = 0;
      faults_zero = 0;
      faults_disk = 0;
      faults_imag = 0;
      precopy_rounds = 0;
      dedup_checked = 0;
      dedup_hits = 0;
      dedup_elided = 0;
      sim_s = 0.;
      requested_at = Hashtbl.create 16;
      stopped_at = Hashtbl.create 16;
      downtime_ms = Stats.create ();
    }

  let observe t (ev : Mig_event.t) =
    let id = ev.Mig_event.proc_id and at = ev.Mig_event.at in
    match ev.Mig_event.kind with
    | Mig_event.Requested _ ->
        t.requested <- t.requested + 1;
        Hashtbl.replace t.requested_at id at;
        Hashtbl.replace t.stopped_at id at
    | Mig_event.Frozen _ -> Hashtbl.replace t.stopped_at id at
    | Mig_event.Restarted ->
        Option.iter
          (fun t0 -> Stats.add t.downtime_ms (at -. t0))
          (Hashtbl.find_opt t.stopped_at id);
        Hashtbl.remove t.stopped_at id
    | Mig_event.Outcome { outcome; _ } ->
        (match outcome with
        | Report.Completed -> t.completed <- t.completed + 1
        | Report.Degraded -> t.degraded <- t.degraded + 1
        | Report.Aborted -> t.aborted <- t.aborted + 1);
        Option.iter
          (fun t0 -> t.sim_s <- t.sim_s +. Accent_sim.Time.to_seconds (at -. t0))
          (Hashtbl.find_opt t.requested_at id);
        Hashtbl.remove t.requested_at id
    | Mig_event.Fault Mig_event.Fault_zero -> t.faults_zero <- t.faults_zero + 1
    | Mig_event.Fault Mig_event.Fault_disk -> t.faults_disk <- t.faults_disk + 1
    | Mig_event.Fault Mig_event.Fault_imaginary ->
        t.faults_imag <- t.faults_imag + 1
    | Mig_event.Precopy_round _ -> t.precopy_rounds <- t.precopy_rounds + 1
    | Mig_event.Dedup_digests { pages; hits } ->
        t.dedup_checked <- t.dedup_checked + pages;
        t.dedup_hits <- t.dedup_hits + hits
    | Mig_event.Dedup_elided { bytes } -> t.dedup_elided <- t.dedup_elided + bytes
    | _ -> ()

  let layer t =
    let f = float_of_int in
    [
      ("kernel.faults_zero", f t.faults_zero);
      ("kernel.faults_disk", f t.faults_disk);
      ("kernel.faults_imag", f t.faults_imag);
      ("core.migrations", f t.requested);
      ("core.completed", f t.completed);
      ("core.degraded", f t.degraded);
      ("core.aborted", f t.aborted);
      ("core.precopy_rounds", f t.precopy_rounds);
      ("core.dedup_pages_checked", f t.dedup_checked);
      ("core.dedup_hits", f t.dedup_hits);
      ("core.dedup_bytes_elided", f t.dedup_elided);
      ("core.downtime_ms_p50", Stats.percentile t.downtime_ms 50.);
      ("core.downtime_ms_p99", p99 t.downtime_ms);
    ]

  let det t =
    [
      int_det "migrations" t.requested;
      int_det "completed" t.completed;
      int_det "faults"
        (t.faults_zero + t.faults_disk + t.faults_imag);
      fl_det "sim_s" t.sim_s;
      fl_det "sim_downtime_ms_p50" (Stats.percentile t.downtime_ms 50.);
    ]
end

(* --- paper --------------------------------------------------------------- *)

(* The paper's whole evaluation plus the lossy-wire Figure 4-3 replay:
   many small two-host worlds, one migration each.  Setup is timed as the
   world and process builds of the sweep's 77 trials (7 representatives
   x 11 strategies), done on their own before the run. *)
let paper ctx =
  let seed = ctx.seed in
  let strategies = 1 + (2 * List.length Strategy.paper_prefetch_values) in
  let (), setup_s, build_words =
    phase ctx ~name:"setup" ~layer:"workloads" (fun () ->
        List.iter
          (fun spec ->
            for _ = 1 to strategies do
              Spans.with_span ctx.tr ~name:"build" ~layer:"workloads" (fun () ->
                  ignore (Sys.opaque_identity (Trial.build_only ~seed ~spec ())))
            done)
          Accent_workloads.Representative.all)
  in
  let tally = Tally.create () in
  let on_event =
    if ctx.tr.Spans.on then begin
      let phases = Spans.phase_subscriber ctx.tr in
      fun ev ->
        Tally.observe tally ev;
        phases ev
    end
    else Tally.observe tally
  in
  let (evaluate, sweep), run_s, run_words =
    phase ctx ~name:"run" ~layer:"experiments" (fun () ->
        let buf = Buffer.create 65_536 in
        Spans.with_span ctx.tr ~name:"evaluate" ~layer:"experiments" (fun () ->
            let ppf = Format.formatter_of_buffer buf in
            Evaluation.run_all ~seed ~on_event ~progress:false ~out:ppf ();
            Format.pp_print_flush ppf ());
        let sweep =
          Spans.with_span ctx.tr ~name:"losssweep" ~layer:"experiments"
            (fun () -> Loss_sweep.run ~seed ())
        in
        (Buffer.contents buf, sweep))
  in
  Spans.with_span ctx.tr ~name:"check" ~layer:"bench" @@ fun () ->
  let losssweep = Loss_sweep.render sweep in
  let reports = List.map (fun p -> p.Loss_sweep.report) sweep.Loss_sweep.points in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let sweep_failed =
    List.length (List.filter (fun r -> r.Report.outcome <> Report.Completed) reports)
  in
  let goodput = sum Report.goodput_bytes and total = sum Report.bytes_total in
  let live_words = live_words_holding (evaluate, sweep) in
  {
    setup_s;
    run_s;
    live_words;
    attempted = tally.Tally.requested + List.length reports;
    failed = tally.Tally.requested - tally.Tally.completed + sweep_failed;
    det =
      [
        ("md5_evaluate", Digest.to_hex (Digest.string evaluate));
        ("md5_losssweep", Digest.to_hex (Digest.string losssweep));
        int_det "losssweep_wire_bytes" total;
      ]
      @ Tally.det tally;
    layer =
      Tally.layer tally
      @ [
          ("workloads.build_s", setup_s);
          ("workloads.build_words", build_words);
          ("runtime.minor_words", run_words);
          ("sim.clock_s", tally.Tally.sim_s);
          ("net.retransmissions", float_of_int (sum (fun r -> r.Report.retransmits)));
          ("net.ack_bytes", float_of_int (sum (fun r -> r.Report.bytes_ack)));
          ("net.give_ups", float_of_int (sum (fun r -> r.Report.transport_give_ups)));
          ("net.goodput_ratio", float_of_int goodput /. float_of_int (max 1 total));
        ];
    checks =
      [
        ("every_sweep_migration_completed", tally.Tally.completed = tally.Tally.requested);
        ("every_loss_sweep_migration_completed", sweep_failed = 0);
        ("the_sweep_ran_migrations", tally.Tally.requested > 0);
      ];
  }

(* --- churn and swap-storm ------------------------------------------------ *)

(* Open Poisson churn.  The scenario builds its world inside
   [run_churn_gc], so setup is timed as a world of the same size built on
   its own first; the run's own construction stays inside [run_s]. *)
let churn ctx ~config ~policy =
  let config = { config with Cluster_scenario.churn_seed = ctx.seed } in
  let (), setup_s, build_words =
    phase ctx ~name:"setup" ~layer:"workloads" (fun () ->
        Spans.with_span ctx.tr ~name:"world_create" ~layer:"core" (fun () ->
            ignore
              (Sys.opaque_identity
                 (World.create ~seed:ctx.seed
                    ~n_hosts:config.Cluster_scenario.hosts ()))))
  in
  let (r, gc), run_s, _ =
    phase ctx ~name:"run" ~layer:"experiments" (fun () ->
        Cluster_scenario.run_churn_gc ~config ~policy ())
  in
  let open Cluster_scenario in
  Spans.with_span ctx.tr ~name:"check" ~layer:"bench" @@ fun () ->
  {
    setup_s;
    run_s;
    live_words = gc.live_words_after;
    attempted = r.jobs_submitted;
    failed = r.jobs_submitted - r.jobs_completed;
    det =
      [
        int_det "events" r.events;
        int_det "jobs_completed" r.jobs_completed;
        int_det "migrations" r.migrations;
        int_det "wire_bytes" r.wire_bytes;
        fl_det "sim_s" r.sim_s;
        fl_det "sim_downtime_ms_p50" r.downtime_ms_p50;
        fl_det "sim_downtime_ms_p99" r.downtime_ms_p99;
        int_det "downtime_samples" r.downtime_samples;
        int_det "max_host_jobs" r.max_host_jobs;
      ];
    layer =
      [
        ("workloads.build_s", setup_s);
        ("workloads.build_words", build_words);
        ("runtime.minor_words", gc.minor_words);
        ("runtime.minor_words_per_event", gc.minor_words_per_event);
        ("sim.events", float_of_int r.events);
        ("sim.events_per_s", float_of_int r.events /. run_s);
        ("sim.clock_s", r.sim_s);
        ("net.wire_bytes", float_of_int r.wire_bytes);
        ("core.migrations", float_of_int r.migrations);
        ("core.downtime_ms_p50", r.downtime_ms_p50);
        ("core.downtime_ms_p99",
         if r.downtime_samples >= 1000 then r.downtime_ms_p99 else 0.);
        ("core.migration_rate_per_s", r.migration_rate_per_s);
        ("core.max_host_jobs", float_of_int r.max_host_jobs);
        ("experiments.turnaround_s_mean", r.mean_turnaround_s);
      ];
    checks =
      [
        ("every_job_submitted", r.jobs_submitted = config.jobs);
        ("every_job_completed", r.jobs_completed = r.jobs_submitted);
        ("the_policy_migrated", r.migrations > 0);
      ];
  }

(* --- lossy-wire ---------------------------------------------------------- *)

(* Large images over a 2%-loss wire with content-addressed transfer on.
   Every host holds two content-identical processes A and B and sends
   both to its right-hand neighbour, B only once A has finished there:
   A's leg fills the neighbour's content store, B's leg hits it.  The
   strategy rotates through copy, pre-copy, hybrid and iou+pf1 by host. *)
let lossy_wire ctx =
  let hosts, real_pages = lossy_size ~smoke:ctx.smoke in
  let strategies =
    [| Strategy.pure_copy; Strategy.pre_copy (); Strategy.hybrid ();
       Strategy.pure_iou ~prefetch:1 () |]
  in
  let costs =
    {
      Accent_kernel.Cost_model.default with
      Accent_kernel.Cost_model.frames_per_host = 2_048;
      nms =
        {
          Accent_net.Netmsgserver.default_params with
          Accent_net.Netmsgserver.dedup = true;
          dedup_capacity_pages = 4 * real_pages;
        };
    }
  in
  let (world, pairs), setup_s, build_words =
    phase ctx ~name:"setup" ~layer:"workloads" (fun () ->
        let world =
          Spans.with_span ctx.tr ~name:"world_create" ~layer:"core" (fun () ->
              World.create ~seed:ctx.seed ~costs
                ~fault_plan:(Accent_net.Fault_plan.iid 0.02) ~n_hosts:hosts ())
        in
        let pairs =
          Array.init hosts (fun i ->
              let spec =
                lossy_spec ~name:(Printf.sprintf "lossy-h%d" i) ~real_pages
              in
              Spans.with_span ctx.tr ~name:"build" ~layer:"workloads" (fun () ->
                  let build () = Accent_workloads.Spec.build (World.host world i) spec in
                  let a = build () in
                  (a, build ())))
        in
        (world, pairs))
  in
  let tally = Tally.create () in
  World.on_migration_event world (Tally.observe tally);
  if ctx.tr.Spans.on then
    World.on_migration_event world (Spans.phase_subscriber ctx.tr);
  let warm = ref [] in
  let (), run_s, run_words =
    phase ctx ~name:"run" ~layer:"experiments" (fun () ->
        Array.iteri
          (fun i (a, b) ->
            let strategy = strategies.(i mod Array.length strategies) in
            let src = World.host world i in
            let dest = Migration_manager.port (World.manager world ((i + 1) mod hosts)) in
            let migrate proc ~on_complete =
              if is_live strategy then Accent_kernel.Proc_runner.start src proc;
              Spans.with_span ctx.tr ~name:"migrate" ~layer:"core" (fun () ->
                  Migration_manager.migrate (World.manager world i) ~proc ~dest
                    ~strategy ~on_complete ())
            in
            ignore
              (migrate a ~on_complete:(fun _ _ ->
                   warm := migrate b ~on_complete:(fun _ _ -> ()) :: !warm)))
          pairs;
        ignore
          (Spans.with_span ctx.tr ~name:"world_run" ~layer:"sim" (fun () ->
               World.run world)))
  in
  Spans.with_span ctx.tr ~name:"check" ~layer:"bench" @@ fun () ->
  let module H = Accent_kernel.Host in
  let module N = Accent_net.Netmsgserver in
  let module C = Accent_net.Content_store in
  let module M = Accent_net.Transfer_monitor in
  let module Q = Accent_sim.Queue_server in
  let host_list = Array.to_list world.World.hosts in
  let sum f = List.fold_left (fun acc h -> acc + f h) 0 host_list in
  let count f = float_of_int (sum f) in
  let busy_s f =
    List.fold_left
      (fun acc h -> acc +. Accent_sim.Time.to_seconds (f h))
      0. host_list
  in
  let mean_wait q =
    let waits = List.map (fun h -> Q.wait_stats (q h)) host_list in
    List.fold_left (fun acc w -> acc +. Stats.total w) 0. waits
    /. float_of_int (max 1 (List.fold_left (fun acc w -> acc + Stats.count w) 0 waits))
  in
  let store h = N.content_store (H.nms h) in
  let reliable f h =
    match N.reliability (H.nms h) with Some r -> f r | None -> 0
  in
  let engine_live =
    List.init hosts (fun i -> Migration_manager.engine_stats (World.manager world i))
    |> List.concat_map (fun stats -> List.concat_map snd stats)
    |> List.fold_left (fun acc (_, n) -> acc + n) 0
  in
  let events = Accent_sim.Engine.events_executed world.World.engine in
  let link = world.World.link and monitor = world.World.monitor in
  let wire = M.bytes_total monitor in
  let warm_hits = List.fold_left (fun acc r -> acc + r.Report.dedup_hits) 0 !warm in
  let store_hits = sum (fun h -> C.hits (store h))
  and store_misses = sum (fun h -> C.misses (store h)) in
  let sim_s = Accent_sim.Time.to_seconds (World.now world) in
  let verified = List.for_all (fun h -> C.verify (store h)) host_list in
  let live_words = live_words_holding world in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  {
    setup_s;
    run_s;
    live_words;
    attempted = tally.Tally.requested;
    failed = tally.Tally.requested - tally.Tally.completed;
    det =
      [
        int_det "events" events;
        int_det "wire_bytes" wire;
        fl_det "sim_clock_s" sim_s;
        fl_det "sim_msg_s" (World.message_seconds world);
        int_det "warm_dedup_hits" warm_hits;
      ]
      @ Tally.det tally;
    layer =
      Tally.layer tally
      @ [
          ("workloads.build_s", setup_s);
          ("workloads.build_words", build_words);
          ("runtime.minor_words", run_words);
          ("runtime.minor_words_per_event", run_words /. float_of_int events);
          ("sim.events", float_of_int events);
          ("sim.events_per_s", float_of_int events /. run_s);
          ("sim.clock_s", sim_s);
          ("mem.evictions", count (fun h -> Accent_mem.Phys_mem.evictions (H.mem h)));
          ("mem.frames_in_use", count (fun h -> Accent_mem.Phys_mem.in_use (H.mem h)));
          ("kernel.exec_cpu_busy_s", busy_s (fun h -> Q.busy_time (H.exec_cpu h)));
          ("kernel.exec_cpu_wait_ms_mean", mean_wait H.exec_cpu);
          ("kernel.disk_busy_s", busy_s (fun h -> Q.busy_time (H.disk_server h)));
          ("kernel.disk_wait_ms_mean", mean_wait H.disk_server);
          ("net.wire_bytes", float_of_int wire);
          ("net.msg_s", World.message_seconds world);
          ("net.fragments_sent", float_of_int (Accent_net.Link.fragments_sent link));
          ("net.link_busy_s", Accent_sim.Time.to_seconds (Accent_net.Link.busy_time link));
          ("net.messages", float_of_int (M.messages_total monitor));
          ("net.nms_busy_s", busy_s (fun h -> N.busy_time (H.nms h)));
          ("net.pages_served", count (fun h -> N.pages_served (H.nms h)));
          ("net.retransmissions", count (reliable Accent_net.Reliable.retransmissions));
          ("net.ack_bytes", float_of_int (M.bytes_of monitor Accent_ipc.Message.Ack));
          ("net.give_ups", count (reliable Accent_net.Reliable.give_ups));
          ("net.goodput_ratio", ratio (M.goodput_bytes monitor) wire);
          ("net.store_hits", float_of_int store_hits);
          ("net.store_misses", float_of_int store_misses);
          ("net.store_insertions", count (fun h -> C.insertions (store h)));
          ("net.store_evictions", count (fun h -> C.evictions (store h)));
          ("net.store_rejects", count (fun h -> C.rejects (store h)));
          ("net.store_hit_ratio", ratio store_hits (store_hits + store_misses));
          ("core.engine_live_entries", float_of_int engine_live);
        ];
    checks =
      [
        ("every_migration_completed", tally.Tally.completed = 2 * hosts);
        ("content_stores_verify_on_every_host", verified);
        ("no_engine_state_survives_quiescence", engine_live = 0);
        ("the_warm_leg_hit_the_content_store", warm_hits > 0);
      ];
  }

let body ctx = function
  | "paper" -> paper ctx
  | "churn" ->
      churn ctx ~config:(churn_config ~smoke:ctx.smoke)
        ~policy:(Placement_policy.threshold ())
  | "swap-storm" ->
      churn ctx ~config:(swap_storm_config ~smoke:ctx.smoke)
        ~policy:(Placement_policy.destination_swap ())
  | "lossy-wire" -> lossy_wire ctx
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- metrics ------------------------------------------------------------- *)

let end_to_end =
  [ ("wall_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB");
    ("live_words_after", "words") ]

(* Every per-layer metric, named after its lib/ directory (runtime is
   the OCaml GC, bench the harness).  A counter a workload cannot observe
   from outside the library reads 0 there; README.md lists which. *)
let per_layer =
  [
    ("runtime.minor_gc_s", "s");
    ("runtime.major_gc_s", "s");
    ("runtime.lost_events", "count");
    ("runtime.minor_words", "words");
    ("runtime.minor_words_per_event", "words/event");
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
    ("sim.clock_s", "sim_s");
    ("workloads.build_s", "s");
    ("workloads.build_words", "words");
    ("mem.evictions", "count");
    ("mem.frames_in_use", "count");
    ("kernel.faults_zero", "count");
    ("kernel.faults_disk", "count");
    ("kernel.faults_imag", "count");
    ("kernel.exec_cpu_busy_s", "sim_s");
    ("kernel.exec_cpu_wait_ms_mean", "sim_ms");
    ("kernel.disk_busy_s", "sim_s");
    ("kernel.disk_wait_ms_mean", "sim_ms");
    ("kernel.phase_pct.excise", "%");
    ("kernel.phase_pct.insert", "%");
    ("kernel.phase_pct.remote_exec", "%");
    ("net.phase_pct.transfer", "%");
    ("net.wire_bytes", "sim_B");
    ("net.msg_s", "sim_s");
    ("net.fragments_sent", "count");
    ("net.link_busy_s", "sim_s");
    ("net.messages", "count");
    ("net.nms_busy_s", "sim_s");
    ("net.pages_served", "count");
    ("net.retransmissions", "count");
    ("net.ack_bytes", "sim_B");
    ("net.give_ups", "count");
    ("net.goodput_ratio", "ratio");
    ("net.store_hits", "count");
    ("net.store_misses", "count");
    ("net.store_insertions", "count");
    ("net.store_evictions", "count");
    ("net.store_rejects", "count");
    ("net.store_hit_ratio", "ratio");
    ("core.migrations", "count");
    ("core.completed", "count");
    ("core.degraded", "count");
    ("core.aborted", "count");
    ("core.engine_live_entries", "count");
    ("core.precopy_rounds", "count");
    ("core.dedup_pages_checked", "count");
    ("core.dedup_hits", "count");
    ("core.dedup_bytes_elided", "sim_B");
    ("core.downtime_ms_p50", "sim_ms");
    ("core.downtime_ms_p99", "sim_ms");
    ("core.migration_rate_per_s", "1/sim_s");
    ("core.max_host_jobs", "count");
    ("experiments.turnaround_s_mean", "sim_s");
    ("experiments.run_s", "s");
    ("experiments.unattributed_pct", "%");
    ("bench.trace_overhead_pct", "%");
  ]

(* --- the child: one rep -------------------------------------------------- *)

let trace_dir = Filename.concat "bench_suite" "out"

(* Run one rep and print it, one "kind key value" line each:
   host (measured seconds, MB, words), det (simulated, exact), layer,
   self (self time per span name), check (ok/FAIL) and ops. *)
let write_trace ~workload ~seed ~counts ~self spans =
  let num_obj kvs = Measure.Obj (List.map (fun (k, v) -> (k, Measure.Num v)) kvs) in
  Measure.mkdir_p trace_dir;
  Measure.write_file
    (Filename.concat trace_dir (Printf.sprintf "trace-%s.json" workload))
    (Measure.to_string
       (Measure.Obj
          [
            ("workload", Measure.Str workload);
            ("seed", Measure.Str (Int64.to_string seed));
            ("counts", num_obj counts);
            ("self_s", num_obj self);
            ("spans", Measure.List (List.map Spans.to_json spans));
          ])
    ^ "\n")

let child ~workload ~seed ~smoke ~traced =
  let tr = Spans.create ~on:traced in
  let gc = if traced then Some (Spans.gc_start ()) else None in
  let o =
    Spans.with_span tr ~name:"rep" ~layer:"bench" (fun () ->
        body { seed; smoke; tr } workload)
  in
  let line kind k v = Printf.printf "%s %s %s\n" kind k v in
  line "host" "setup_s" (fl o.setup_s);
  line "host" "run_s" (fl o.run_s);
  line "host" "peak_rss_mb" (fl (Measure.peak_rss_mb ()));
  line "host" "live_words_after" (string_of_int o.live_words);
  line "ops" "attempted" (string_of_int o.attempted);
  line "ops" "failed" (string_of_int o.failed);
  List.iter (fun (k, v) -> line "det" k v) o.det;
  List.iter (fun (k, ok) -> line "check" k (if ok then "ok" else "FAIL")) o.checks;
  Option.iter
    (fun gc ->
      let minor_s, major_s, lost = Spans.gc_stop gc in
      let spans = Spans.spans tr in
      let measured =
        o.layer
        @ Spans.phase_shares spans
        @ [
            ("runtime.minor_gc_s", minor_s);
            ("runtime.major_gc_s", major_s);
            ("runtime.lost_events", float_of_int lost);
          ]
      in
      (* the full catalogue, 0 where this workload cannot observe it; the
         overhead is the parent's, from traced and untraced reps *)
      let counts =
        List.filter_map
          (fun (k, _) ->
            if k = "bench.trace_overhead_pct" then None
            else Some (k, Option.value ~default:0. (List.assoc_opt k measured)))
          per_layer
      in
      let self = Spans.self_times spans in
      List.iter (fun (k, v) -> line "layer" k (fl v)) counts;
      List.iter (fun (k, v) -> line "self" k (fl v)) self;
      write_trace ~workload ~seed ~counts ~self spans)
    gc

(* --- the parent: reps, checks, report ------------------------------------ *)

type rep = {
  host : (string * float) list;
  det : (string * string) list;
  layer : (string * float) list;
  self : (string * float) list;
  checks : (string * bool) list;
  attempted : int;
  failed : int;
}

let parse_rep lines =
  let empty = { host = []; det = []; layer = []; self = []; checks = []; attempted = 0; failed = 0 } in
  List.fold_left
    (fun r l ->
      match String.split_on_char ' ' l with
      | [ "host"; k; v ] -> { r with host = r.host @ [ (k, float_of_string v) ] }
      | [ "det"; k; v ] -> { r with det = r.det @ [ (k, v) ] }
      | [ "layer"; k; v ] -> { r with layer = r.layer @ [ (k, float_of_string v) ] }
      | [ "self"; k; v ] -> { r with self = r.self @ [ (k, float_of_string v) ] }
      | [ "check"; k; v ] -> { r with checks = r.checks @ [ (k, v = "ok") ] }
      | [ "ops"; "attempted"; v ] -> { r with attempted = int_of_string v }
      | [ "ops"; "failed"; v ] -> { r with failed = int_of_string v }
      | _ -> failwith ("unparsable rep line: " ^ l))
    empty lines

let wall r = List.assoc "setup_s" r.host +. List.assoc "run_s" r.host

let e2e_value r = function
  | "wall_s" -> wall r
  | k -> List.assoc k r.host

type runs = { workload : string; mutable plain : rep list; mutable traced : rep list }

let run_rep ~seed ~smoke ~traced workload =
  let argv =
    Array.of_list
      ([ Sys.executable_name; "--child"; workload; "--seed"; Int64.to_string seed;
         "--trace"; (if traced then "1" else "0") ]
      @ if smoke then [ "--smoke" ] else [])
  in
  let env =
    if traced then
      (* the runtime-events ring file lives beside the traces, not in cwd *)
      Array.append (Unix.environment ()) [| "OCAML_RUNTIME_EVENTS_DIR=" ^ trace_dir |]
    else Unix.environment ()
  in
  if traced then Measure.mkdir_p trace_dir;
  match Measure.run_child ~env argv with
  | lines, Unix.WEXITED 0 -> parse_rep lines
  | _, _ ->
      {
        host = []; det = []; layer = []; self = [];
        checks = [ ("rep_exited_cleanly", false) ];
        attempted = 1; failed = 1;
      }

(* failed checks of one workload: each rep's own, determinism across
   every rep, and the committed values at seed 42 *)
let failed_checks ~seed ~smoke r =
  let all = r.plain @ r.traced in
  let own =
    List.concat_map
      (fun rep -> List.filter_map (fun (k, ok) -> if ok then None else Some k) rep.checks)
      all
  in
  let drift =
    List.map (fun k -> "identical_in_every_rep:" ^ k)
      (Measure.differing (List.map (fun rep -> rep.det) all))
  in
  let expected =
    match (seed, all) with
    | 42L, rep :: _ ->
        let want = Expected.at_seed_42 ~smoke r.workload in
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k rep.det with
            | Some got when got = v -> None
            | got ->
                Some
                  (Printf.sprintf "expected_at_seed_42:%s (want %s, got %s)" k v
                     (Option.value ~default:"nothing" got)))
          want
        @ List.filter_map
            (fun (k, v) ->
              if List.mem_assoc k want then None
              else Some (Printf.sprintf "expected_at_seed_42:%s (no committed value, got %s)" k v))
            rep.det
    | _ -> []
  in
  own @ drift @ expected

let median xs = (Measure.summarize xs).Measure.median

(* the reps whose process succeeded; a failed one is already a failed check *)
let ok reps = List.filter (fun rep -> rep.host <> []) reps

let samples r k = List.map (fun rep -> e2e_value rep k) (ok r.plain)

let print_workload ~seed r failures =
  let n = List.length r.plain in
  Printf.printf "\n== %s  (seed %Ld, %d reps, %d traced)\n" r.workload seed n
    (List.length r.traced);
  Printf.printf "  %-18s %-6s %3s %14s %14s %14s\n" "metric" "unit" "n" "median" "q1" "q3";
  List.iter
    (fun (k, unit) ->
      let s = Measure.summarize (samples r k) in
      Printf.printf "  %-18s %-6s %3d %14.6g %14.6g %14.6g\n" k unit s.Measure.n
        s.Measure.median s.Measure.q1 s.Measure.q3)
    end_to_end;
  (match r.plain @ r.traced with
  | rep :: _ ->
      Printf.printf "  simulated (same in all %d reps unless a check below says otherwise):\n"
        (List.length r.plain + List.length r.traced);
      List.iter (fun (k, v) -> Printf.printf "    %-22s %s\n" k v) rep.det
  | [] -> ());
  match failures with
  | [] -> Printf.printf "  checks: all passed\n"
  | l ->
      Printf.printf "  checks: %d FAILED (listed on stderr)\n" (List.length l);
      List.iter (fun f -> Printf.eprintf "%s: CHECK FAILED: %s\n%!" r.workload f) l

let overhead_pct r =
  match (r.plain, r.traced) with
  | [], _ | _, [] -> 0.
  | _ -> 100. *. ((median (List.map wall (ok r.traced)) /. median (samples r "wall_s")) -. 1.)

let layer_values r =
  List.map
    (fun (k, unit) ->
      let v =
        if k = "bench.trace_overhead_pct" then overhead_pct r
        else median (List.map (fun rep -> List.assoc k rep.layer) (ok r.traced))
      in
      (k, unit, v))
    per_layer

let print_layers results =
  let traced = List.filter (fun r -> r.traced <> []) results in
  if traced <> [] then begin
    Printf.printf "\n== per-layer (median of the traced reps)\n  %-32s %-11s" "metric" "unit";
    List.iter (fun r -> Printf.printf " %14s" r.workload) traced;
    print_newline ();
    List.iter
      (fun (k, unit) ->
        Printf.printf "  %-32s %-11s" k unit;
        List.iter
          (fun r ->
            let _, _, v = List.find (fun (k', _, _) -> k' = k) (layer_values r) in
            Printf.printf " %14.6g" v)
          traced;
        print_newline ())
      per_layer;
    List.iter
      (fun r ->
        Printf.printf "\n== self time by span, %s (s, median of the traced reps)\n" r.workload;
        let names = List.sort_uniq compare (List.concat_map (fun rep -> List.map fst rep.self) r.traced) in
        List.map
          (fun name ->
            (name, median (List.map (fun rep -> Option.value ~default:0. (List.assoc_opt name rep.self)) r.traced)))
          names
        |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
        |> List.iter (fun (name, s) -> Printf.printf "  %-14s %10.4f\n" name s);
        Printf.printf "  trace_overhead_pct %.1f  (written: %s)\n" (overhead_pct r)
          (Filename.concat trace_dir ("trace-" ^ r.workload ^ ".json")))
      traced
  end

(* the JSON written by --out: every end-to-end sample, the simulated
   results and the failed checks of each workload *)
let out_json ~seed ~smoke failures =
  let summary xs =
    let s = Measure.summarize xs in
    Measure.Obj
      [
        ("n", Measure.Int s.Measure.n);
        ("median", Measure.Num s.Measure.median);
        ("q1", Measure.Num s.Measure.q1);
        ("q3", Measure.Num s.Measure.q3);
        ("samples", Measure.List (List.map (fun x -> Measure.Num x) xs));
      ]
  in
  let workload (r, failed) =
    ( r.workload,
      Measure.Obj
        [
          ( "end_to_end",
            Measure.Obj (List.map (fun (k, _) -> (k, summary (samples r k))) end_to_end) );
          ( "simulated",
            Measure.Obj
              (match r.plain @ r.traced with
              | rep :: _ -> List.map (fun (k, v) -> (k, Measure.Str v)) rep.det
              | [] -> []) );
          ("failed_checks", Measure.List (List.map (fun f -> Measure.Str f) failed));
        ] )
  in
  Measure.Obj
    [
      ("seed", Measure.Str (Int64.to_string seed));
      ("smoke", Measure.Bool smoke);
      ("workloads", Measure.Obj (List.map workload failures));
    ]

(* The last line of stdout: correctness, operation counts and the
   metrics, each named once (prefixed by workload when several ran). *)
let result_line ~trace failures =
  let all_reps = List.concat_map (fun (r, _) -> r.plain @ r.traced) failures in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
  let key r k = if List.length failures = 1 then k else r.workload ^ "." ^ k in
  let metric k unit v =
    (k, Measure.Obj [ ("value", Measure.Num v); ("unit", Measure.Str unit) ])
  in
  let metrics (r, _) =
    if trace then List.map (fun (k, unit, v) -> metric (key r k) unit v) (layer_values r)
    else List.map (fun (k, unit) -> metric (key r k) unit (median (samples r k))) end_to_end
  in
  Measure.Obj
    [
      ("correct", Measure.Bool (List.for_all (fun (_, f) -> f = []) failures));
      ("attempted", Measure.Int (sum (fun rep -> rep.attempted) all_reps));
      ( "failed",
        Measure.Int
          (sum (fun rep -> rep.failed) all_reps + sum (fun (_, f) -> List.length f) failures) );
      ("metrics", Measure.Obj (List.concat_map metrics failures));
    ]

(* Reps are interleaved round-robin across the workloads, so a slow
   stretch of a shared machine spreads over all of them.  A counted run
   does [reps] rounds and then one traced rep per workload; a timed run
   keeps going while another round fits in [seconds] (at least three),
   tracing every round. *)
let schedule ~seed ~smoke ~trace ~reps ~seconds results =
  let rep r ~traced =
    let x = run_rep ~seed ~smoke ~traced r.workload in
    if traced then r.traced <- r.traced @ [ x ] else r.plain <- r.plain @ [ x ]
  in
  let t0 = Measure.now () in
  let rec rounds i round_s =
    let go =
      match seconds with
      | None -> i < reps
      | Some s -> i < 3 || Measure.now () -. t0 +. median round_s <= s
    in
    if go then begin
      let start = Measure.now () in
      List.iter (fun r -> rep r ~traced:false) results;
      if trace && seconds <> None then List.iter (fun r -> rep r ~traced:true) results;
      rounds (i + 1) ((Measure.now () -. start) :: round_s)
    end
  in
  rounds 0 [];
  if trace && seconds = None then List.iter (fun r -> rep r ~traced:true) results

let usage () =
  prerr_endline
    "usage: suite.exe [--workload W[,W..]] [--seed N] [--reps N] [--seconds T] \
     [--trace 0|1] [--smoke] [--out FILE]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec flag name = function
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> flag name rest
    | [] -> None
  in
  let smoke = List.mem "--smoke" args in
  let count name =
    Option.map
      (fun v -> match int_of_string_opt v with Some n when n >= 0 -> n | _ -> usage ())
      (flag name args)
  in
  let seed =
    match flag "--seed" args with
    | None -> 42L
    | Some v -> ( match Int64.of_string_opt v with Some s -> s | None -> usage ())
  in
  let trace =
    match flag "--trace" args with None | Some "0" -> false | Some "1" -> true | _ -> usage ()
  in
  match flag "--child" args with
  | Some w when List.mem w workload_names -> child ~workload:w ~seed ~smoke ~traced:trace
  | Some _ -> usage ()
  | None ->
      let workloads =
        match flag "--workload" args with
        | None -> workload_names
        | Some s ->
            let ws = String.split_on_char ',' s in
            if List.for_all (fun w -> List.mem w workload_names) ws then ws else usage ()
      in
      let reps = Option.value ~default:(if smoke then 1 else 5) (count "--reps") in
      let seconds = Option.map float_of_int (count "--seconds") in
      let results = List.map (fun workload -> { workload; plain = []; traced = [] }) workloads in
      schedule ~seed ~smoke ~trace ~reps ~seconds results;
      let failures = List.map (fun r -> (r, failed_checks ~seed ~smoke r)) results in
      List.iter (fun (r, f) -> print_workload ~seed r f) failures;
      if trace then print_layers results;
      Option.iter
        (fun path -> Measure.write_file path (Measure.to_string (out_json ~seed ~smoke failures) ^ "\n"))
        (flag "--out" args);
      print_endline (Measure.to_string (result_line ~trace failures));
      exit (if List.for_all (fun (_, f) -> f = []) failures then 0 else 1)
