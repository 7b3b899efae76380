(* The scale benchmark: how much the simulator itself costs as the
   simulated system grows.

   Two axes are swept together: address-space size (four orders of
   magnitude of real memory) and cluster size (every host carries one
   process and migrates it to its neighbour, so n hosts means n
   concurrent migrations over the shared wire).  Each trial reports

     - wall-clock seconds for the whole trial (world construction,
       workload build, migration, remote execution to completion),
     - words allocated on the OCaml heap over the same window, measured
       with Gc.minor_words: on OCaml 5.1, Gc.allocated_bytes inflates by
       the promoted words of every minor collection in the window (a
       bare Gc.minor () with N live young words reports ~N words
       "allocated"), which made the old numbers grow with live-data
       size rather than allocation.  Minor words are the honest
       allocation-pressure number and are exact across promotions, and
     - simulation events executed, and events per wall second.

   Results land in BENCH_scale.json so the perf trajectory across PRs
   has a machine-readable baseline.

   Run with:  dune exec bench/scale.exe            (full sweep)
              dune exec bench/scale.exe -- --smoke (tiny sweep, for CI)
              dune exec bench/scale.exe -- --sizes 8192,65536 --hosts 2
                (explicit grid; CI's scale gate uses this pair to check
                that hybrid throughput is size-independent)
              dune exec bench/scale.exe -- --fig41-only
                (only the largest Figure 4-1 trial's allocation probe)
              dune exec bench/scale.exe -- --domains 4
                (fan the trial grid over OCaml domains; each trial is an
                independent world, but concurrent trials share the
                machine, so per-trial wall/ev-per-sec numbers are only
                comparable across runs at the same domain count)

   The --fig41 probe exists because the paper's headline is that
   transfer cost tracks *referenced* bytes, not address-space size; the
   probe measures whether the simulator's own memory behaviour finally
   agrees (symbolic pages are never materialized until written). *)

open Accent_core

(* --- synthetic workload, scaled by real size --------------------------- *)

let scale_spec ~name ~real_pages =
  let page = Accent_mem.Page.size in
  let touched = max 4 (min 256 (real_pages / 8)) in
  let rs_pages = max touched (min (real_pages / 4) 1024) in
  {
    Accent_workloads.Spec.name;
    description = "synthetic scale-sweep workload";
    real_bytes = real_pages * page;
    total_bytes = 4 * real_pages * page;
    rs_bytes = rs_pages * page;
    touched_real_pages = touched;
    rs_touched_overlap = touched;
    real_runs = min 8 real_pages;
    vm_segments = 4;
    pattern =
      Accent_workloads.Access_pattern.Sequential
        { streams = 1; revisit = 0.1; run = 16 };
    refs = 2 * touched;
    total_think_ms = 100.;
    zero_touch_pages = 2;
    base_addr = 0x40000;
  }

type trial = {
  strategy : string;
  real_pages : int;
  n_hosts : int;
  frames : int;
  wall_s : float;
  allocated_words : float;
  events : int;
  events_per_sec : float;
  sim_ms : float;
  completed : int;
  wire_bytes : int;
}

(* Each timed point runs the whole trial [reps] times and reports the
   best wall clock: a trial is deterministic (identical event count and
   allocation every repeat), so the wall spread across repeats is pure
   scheduler/cache noise and the minimum is the least-contaminated
   estimate.  Allocation and event counts come from the first repeat. *)
let reps = 3

let run_trial_once ?frames ~strategy ~real_pages ~n_hosts () =
  let costs =
    match frames with
    | None -> Accent_kernel.Cost_model.default
    | Some frames_per_host ->
        { Accent_kernel.Cost_model.default with frames_per_host }
  in
  let wall0 = Unix.gettimeofday () in
  let alloc0 = Gc.minor_words () in
  let world = World.create ~costs ~n_hosts () in
  let procs =
    List.init n_hosts (fun i ->
        Accent_workloads.Spec.build (World.host world i)
          (scale_spec ~name:(Printf.sprintf "scale-h%d" i) ~real_pages))
  in
  let completed = ref 0 in
  List.iteri
    (fun i proc ->
      if Strategy.is_live strategy then
        Accent_kernel.Proc_runner.start (World.host world i) proc;
      ignore
        (Migration_manager.migrate (World.manager world i) ~proc
           ~dest:(Migration_manager.port (World.manager world ((i + 1) mod n_hosts)))
           ~strategy
           ~on_complete:(fun _ _ -> incr completed)
           ()))
    procs;
  let sim_end = World.run world in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let allocated_words = Gc.minor_words () -. alloc0 in
  let events = Accent_sim.Engine.events_executed world.World.engine in
  if !completed <> n_hosts then
    failwith
      (Printf.sprintf "scale: only %d/%d migrations completed" !completed
         n_hosts);
  {
    strategy = Strategy.name strategy;
    real_pages;
    n_hosts;
    frames = costs.Accent_kernel.Cost_model.frames_per_host;
    wall_s;
    allocated_words;
    events;
    events_per_sec = float_of_int events /. Float.max 1e-9 wall_s;
    sim_ms = Accent_sim.Time.to_ms sim_end;
    completed = !completed;
    wire_bytes = Accent_net.Transfer_monitor.bytes_total world.World.monitor;
  }

let run_trial ?frames ~strategy ~real_pages ~n_hosts () =
  let first = run_trial_once ?frames ~strategy ~real_pages ~n_hosts () in
  let best_wall = ref first.wall_s in
  for _ = 2 to reps do
    let t = run_trial_once ?frames ~strategy ~real_pages ~n_hosts () in
    if t.events <> first.events then
      failwith "scale: non-deterministic trial (event count drifted)";
    if t.wall_s < !best_wall then best_wall := t.wall_s
  done;
  {
    first with
    wall_s = !best_wall;
    events_per_sec = float_of_int first.events /. Float.max 1e-9 !best_wall;
  }

(* --- the largest Figure 4-1 trial, as an allocation probe -------------- *)

type probe = {
  workload : string;
  strategy : string;
  probe_wall_s : float;
  minor_words : float;
}

let fig41_probe () =
  let spec =
    match Accent_workloads.Representative.by_name "Lisp-Del" with
    | Some s -> s
    | None -> failwith "scale: Lisp-Del spec missing"
  in
  List.map
    (fun strategy ->
      let wall0 = Unix.gettimeofday () in
      let alloc0 = Gc.minor_words () in
      let result = Accent_experiments.Trial.run ~spec ~strategy () in
      let minor_words = Gc.minor_words () -. alloc0 in
      let wall_s = Unix.gettimeofday () -. wall0 in
      ignore result.Accent_experiments.Trial.report;
      {
        workload = spec.Accent_workloads.Spec.name;
        strategy = Strategy.name strategy;
        probe_wall_s = wall_s;
        minor_words;
      })
    [ Strategy.pure_copy; Strategy.pure_iou (); Strategy.hybrid () ]

(* --- JSON output ------------------------------------------------------- *)

let trial_json (t : trial) =
  Printf.sprintf
    {|    {"strategy": "%s", "real_pages": %d, "hosts": %d, "frames": %d, "wall_s": %.4f, "allocated_words": %.0f, "events": %d, "events_per_sec": %.0f, "sim_ms": %.3f, "migrations_completed": %d, "wire_bytes": %d}|}
    t.strategy t.real_pages t.n_hosts t.frames t.wall_s t.allocated_words
    t.events t.events_per_sec t.sim_ms t.completed t.wire_bytes

let probe_json p =
  Printf.sprintf
    {|    {"workload": "%s", "strategy": "%s", "wall_s": %.4f, "minor_words": %.0f}|}
    p.workload p.strategy p.probe_wall_s p.minor_words

(* --- the content-addressed transfer headline --------------------------- *)

(* One high-overlap point of the Dedup_sweep experiment: the bytes a
   re-migration to a warm host costs with and without the digest-first
   protocol.  Tracked in the bench JSON so the dedup win (and the
   dedup-off byte count, which must never drift) has a baseline. *)
let dedup_json () =
  let t =
    Accent_experiments.Dedup_sweep.run ~overlaps:[ 0.9 ]
      ~strategies:[ Strategy.pure_copy; Strategy.hybrid () ]
      ()
  in
  List.map
    (fun (c : Accent_experiments.Dedup_sweep.cell) ->
      Printf.sprintf
        {|    {"strategy": "%s", "overlap": %g, "off_wire_bytes": %d, "on_wire_bytes": %d, "reduction_pct": %.1f, "digest_hits": %d, "pages_checked": %d}|}
        (Strategy.name c.Accent_experiments.Dedup_sweep.strategy)
        c.Accent_experiments.Dedup_sweep.overlap
        (Report.bytes_total c.Accent_experiments.Dedup_sweep.off)
        (Report.bytes_total c.Accent_experiments.Dedup_sweep.on_)
        (Accent_experiments.Dedup_sweep.reduction_pct c)
        c.Accent_experiments.Dedup_sweep.on_.Report.dedup_hits
        c.Accent_experiments.Dedup_sweep.on_.Report.dedup_pages_checked)
    t.Accent_experiments.Dedup_sweep.cells

let write_json ~path ~mode ~trials ~probes ~dedup =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc {|  "benchmark": "scale",%s|} "\n";
  Printf.fprintf oc {|  "mode": "%s",%s|} mode "\n";
  Printf.fprintf oc {|  "page_bytes": %d,%s|} Accent_mem.Page.size "\n";
  Printf.fprintf oc "  \"trials\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map trial_json trials));
  Printf.fprintf oc "  \"dedup_sweep\": [\n%s\n  ],\n"
    (String.concat ",\n" dedup);
  Printf.fprintf oc "  \"fig41_probe\": [\n%s\n  ]\n"
    (String.concat ",\n" (List.map probe_json probes));
  Printf.fprintf oc "}\n";
  close_out oc

(* --- driver ------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" args in
  let fig41_only = List.mem "--fig41-only" args in
  let rec flag name default = function
    | f :: v :: _ when f = name -> v
    | _ :: rest -> flag name default rest
    | [] -> default
  in
  let out = flag "--out" "BENCH_scale.json" args in
  let domains = int_of_string (flag "--domains" "1" args) in
  (* --sizes / --hosts take comma-separated overrides: CI's scale gate
     runs just the 8192/65536 pair instead of the whole sweep *)
  let csv s = List.map int_of_string (String.split_on_char ',' s) in
  let sizes_override = flag "--sizes" "" args in
  let sizes, hosts =
    if sizes_override <> "" then
      (csv sizes_override, csv (flag "--hosts" "2" args))
    else if smoke then ([ 64; 256 ], [ 2; 3 ])
    else ([ 128; 1_024; 8_192; 32_768; 65_536 ], [ 2; 4; 8 ])
  in
  (* same sweep again against a quarter-size frame pool: spaces that
     exceed it force an eviction per fault, so the sim's own eviction
     path is on the critical path of every one of these points *)
  let constrained =
    if sizes_override <> "" then []
    else if smoke then [ (256, 64, 2) ]
    else [ (8_192, 1_024, 2); (8_192, 1_024, 4); (32_768, 1_024, 2) ]
  in
  let report (t : trial) =
    Printf.printf
      "scale: %-6s %6d pages x %d hosts (%5d frames)  %7.3f s  %12.0f words  \
       %8d events (%8.0f ev/s)\n\
       %!"
      t.strategy t.real_pages t.n_hosts t.frames t.wall_s t.allocated_words
      t.events t.events_per_sec
  in
  let trials =
    if fig41_only then []
    else begin
      (* flatten the grid so it can fan over domains; every trial is an
         independent world, and merging by index keeps the JSON row
         order identical for any domain count *)
      let grid =
        List.concat_map
          (fun strategy ->
            List.concat_map
              (fun real_pages ->
                List.map (fun n_hosts -> (strategy, None, real_pages, n_hosts)) hosts)
              sizes
            @ List.map
                (fun (real_pages, frames, n_hosts) ->
                  (strategy, Some frames, real_pages, n_hosts))
                constrained)
          [ Strategy.pure_iou (); Strategy.hybrid () ]
      in
      Accent_util.Domain_pool.map_list ~domains
        (fun (strategy, frames, real_pages, n_hosts) ->
          let t = run_trial ?frames ~strategy ~real_pages ~n_hosts () in
          report t;
          t)
        grid
    end
  in
  let probes =
    if smoke || sizes_override <> "" then []
    else begin
      let probes = fig41_probe () in
      List.iter
        (fun p ->
          Printf.printf "fig41: %-9s %-10s %7.3f s  %14.0f minor words\n%!"
            p.workload p.strategy p.probe_wall_s p.minor_words)
        probes;
      probes
    end
  in
  let dedup =
    if fig41_only then []
    else begin
      let cells = dedup_json () in
      Printf.printf "dedup: %d high-overlap cells measured\n%!"
        (List.length cells);
      cells
    end
  in
  write_json ~path:out ~mode:(if smoke then "smoke" else "full") ~trials
    ~probes ~dedup;
  Printf.printf "scale: wrote %s\n%!" out
