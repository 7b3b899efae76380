(* The cluster benchmark: the open-workload (churn) scenario at
   datacenter scale.

   Three sections land in BENCH_cluster.json:

     - "policies": the four placement policies (static, random,
       threshold, destination-swap) compared on one churn configuration —
       migration rate, p50/p99 downtime, bytes on the wire, turnaround;
     - "big_run": a 1000-host run sized to execute over a million
       simulation events, as a single-world scalability probe, with the
       allocation meters on (minor words per event, live words after the
       departed jobs are released, and the process's top heap, whose
       high-water mark the big run sets) — smoke mode runs a smaller gate
       configuration so CI can hold both throughput and allocation to a
       committed baseline (bench/BASELINE_cluster.json);
     - "sweep": the same seed sweep run sequentially and fanned over
       OCaml domains (Accent_util.Domain_pool), with the per-seed results
       asserted structurally identical and the measured speedup reported.
       The speedup is honest: it also records how many cores the machine
       actually has, since a single-core box cannot show one.

   Run with:  dune exec bench/cluster.exe            (full sweep)
              dune exec bench/cluster.exe -- --smoke (tiny, for CI)
   Flags: --out PATH, --domains N, --seeds K. *)

open Accent_core
open Accent_experiments

(* --- configurations ----------------------------------------------------- *)

let smoke_config =
  {
    Cluster_scenario.default_churn with
    Cluster_scenario.hosts = 20;
    jobs = 200;
    arrival_rate_per_s = 20.;
    job_think_ms = 2_000.;
  }

(* ~55 events per job (measured), so 20_000 jobs clears a million events
   comfortably while a thousand hosts keep per-host contention low *)
let big_config =
  {
    Cluster_scenario.default_churn with
    Cluster_scenario.hosts = 1_000;
    jobs = 20_000;
    arrival_rate_per_s = 400.;
    job_think_ms = 3_000.;
  }

(* the smoke-mode instrumented run: small enough for CI, large enough
   that events-per-second and words-per-event are stable *)
let gate_config =
  {
    smoke_config with
    Cluster_scenario.hosts = 50;
    jobs = 1_000;
    arrival_rate_per_s = 50.;
  }

let sweep_config smoke =
  if smoke then smoke_config
  else
    {
      Cluster_scenario.default_churn with
      Cluster_scenario.hosts = 200;
      jobs = 2_000;
      arrival_rate_per_s = 100.;
    }

(* --- driver ------------------------------------------------------------ *)

let () =
  let args =
    Harness.parse ~name:"cluster" ~out:"BENCH_cluster.json"
      Harness.[ ("--domains", Int); ("--seeds", Int) ]
  in
  (* nothing of [args] stays live into the big run, whose live-heap
     figure counts this whole process *)
  let smoke = args.smoke and out = args.out in
  let domains =
    Harness.int args "--domains" ~default:(if smoke then 2 else 4)
  in
  let n_seeds = Harness.int args "--seeds" ~default:(if smoke then 2 else 4) in
  let config = if smoke then smoke_config else Cluster_scenario.default_churn in

  (* 1. policy comparison *)
  let policies =
    let m =
      Harness.measure (fun () -> Cluster_scenario.compare_churn ~config ())
    in
    print_string (Cluster_scenario.render_churn m.value);
    Printf.printf "cluster: policy comparison in %.2f s\n%!" m.wall_s;
    m.value
  in

  (* 2. the single-world probe with the allocation meters on: the
     1000-host million-event run in full mode, a smaller gate
     configuration in smoke mode (CI compares it against the committed
     baseline) *)
  let big =
    let cfg = if smoke then gate_config else big_config in
    Harness.measure (fun () ->
        Cluster_scenario.run_churn_gc ~config:cfg
          ~policy:(Placement_policy.threshold ()) ())
  in
  let r, gc = big.value in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let events_per_s = Harness.per_sec r.Cluster_scenario.events big.wall_s in
  Printf.printf
    "cluster: big run  %d hosts  %d events  %d migrations  %.2f s wall  \
     %.0f ev/s  %.1f minor words/event  %d live words after  %d top heap \
     words\n\
     %!"
    r.Cluster_scenario.hosts_n r.Cluster_scenario.events
    r.Cluster_scenario.migrations big.wall_s events_per_s
    gc.Cluster_scenario.minor_words_per_event
    gc.Cluster_scenario.live_words_after top_heap_words;
  if (not smoke) && r.Cluster_scenario.events < 1_000_000 then
    failwith
      (Printf.sprintf "cluster: big run executed only %d events (< 1M)"
         r.Cluster_scenario.events);

  (* 3. sequential vs domain-parallel seed sweep *)
  let seeds = List.init n_seeds (fun i -> Int64.of_int (1 + i)) in
  let sw_config = sweep_config smoke in
  let policy = Placement_policy.threshold () in
  let sweep domains =
    Harness.measure (fun () ->
        Cluster_scenario.churn_seed_sweep ~config:sw_config ~domains ~policy
          ~seeds ())
  in
  let seq = sweep 1 in
  let par = sweep domains in
  if seq.value <> par.value then
    failwith "cluster: parallel sweep diverged from sequential results";
  let cores = Accent_util.Domain_pool.recommended () in
  let speedup = seq.wall_s /. Float.max 1e-9 par.wall_s in
  Printf.printf
    "cluster: sweep of %d seeds  seq %.2f s  %d-domain %.2f s  speedup %.2fx \
     (machine has %d cores)  per-seed results identical\n\
     %!"
    n_seeds seq.wall_s domains par.wall_s speedup cores;

  let churn_rows rs = Harness.rows (List.map Cluster_scenario.churn_json rs) in
  Harness.write_json ~name:"cluster" ~smoke ~out
    [
      ("policies", churn_rows policies);
      ( "big_run",
        Printf.sprintf
          "{\"wall_s\": %.3f, \"events_per_s\": %.1f, \"minor_words\": %.0f, \
           \"minor_words_per_event\": %.2f, \"live_words_after\": %d, \
           \"top_heap_words\": %d, \"result\": %s}"
          big.wall_s events_per_s gc.Cluster_scenario.minor_words
          gc.Cluster_scenario.minor_words_per_event
          gc.Cluster_scenario.live_words_after top_heap_words
          (Cluster_scenario.churn_json r) );
      ( "sweep",
        Printf.sprintf
          "{\"seeds\": %d, \"domains\": %d, \"cores\": %d, \
           \"seq_wall_s\": %.3f, \"par_wall_s\": %.3f, \"speedup\": %.3f, \
           \"identical\": true, \"rows\": %s}"
          n_seeds domains cores seq.wall_s par.wall_s speedup
          (churn_rows seq.value) );
    ]
