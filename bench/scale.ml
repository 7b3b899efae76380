(* The scale benchmark: how much the simulator itself costs as the
   simulated system grows.

   Two axes are swept together: address-space size (four orders of
   magnitude of real memory) and cluster size (every host carries one
   process and migrates it to its neighbour, so n hosts means n
   concurrent migrations over the shared wire).  Each trial reports

     - wall-clock seconds for the whole trial (world construction,
       workload build, migration, remote execution to completion),
     - minor words allocated over the same window (Harness.measure
       says why minor words), and
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

(* Each timed point runs the whole trial [reps] times and reports the
   best wall clock (Harness.best_of, which stops the sweep if a repeat
   executes different events or allocates different minor words). *)
let reps = 3

(* Every host migrates its process to its neighbour; the world after the
   run. *)
let trial_world ~costs ~strategy ~real_pages ~n_hosts () =
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
  ignore (World.run world);
  if !completed <> n_hosts then
    failwith
      (Printf.sprintf "scale: only %d/%d migrations completed" !completed
         n_hosts);
  world

let run_trial ?frames ~strategy ~real_pages ~n_hosts () =
  let costs =
    match frames with
    | None -> Accent_kernel.Cost_model.default
    | Some frames_per_host ->
        { Accent_kernel.Cost_model.default with frames_per_host }
  in
  let events w = Accent_sim.Engine.events_executed w.World.engine in
  let m =
    Harness.best_of ~reps ~events
      (trial_world ~costs ~strategy ~real_pages ~n_hosts)
  in
  let world = m.value in
  let strategy = Strategy.name strategy
  and frames = costs.Accent_kernel.Cost_model.frames_per_host
  and events = events world in
  let events_per_sec = Harness.per_sec events m.wall_s in
  Printf.printf
    "scale: %-6s %6d pages x %d hosts (%5d frames)  %7.3f s  %12.0f words  \
     %8d events (%8.0f ev/s)\n\
     %!"
    strategy real_pages n_hosts frames m.wall_s m.minor_words events
    events_per_sec;
  Printf.sprintf
    {|{"strategy": "%s", "real_pages": %d, "hosts": %d, "frames": %d, "wall_s": %.4f, "allocated_words": %.0f, "events": %d, "events_per_sec": %.0f, "sim_ms": %.3f, "migrations_completed": %d, "wire_bytes": %d}|}
    strategy real_pages n_hosts frames m.wall_s m.minor_words events
    events_per_sec
    (Accent_sim.Time.to_ms (Accent_sim.Engine.now world.World.engine))
    n_hosts
    (Accent_net.Transfer_monitor.bytes_total world.World.monitor)

(* --- the largest Figure 4-1 trial, as an allocation probe -------------- *)

let fig41_probe () =
  let spec =
    match Accent_workloads.Representative.by_name "Lisp-Del" with
    | Some s -> s
    | None -> failwith "scale: Lisp-Del spec missing"
  in
  List.map
    (fun strategy ->
      let m =
        Harness.measure (fun () ->
            Accent_experiments.Trial.run ~spec ~strategy ())
      in
      let workload = spec.Accent_workloads.Spec.name
      and strategy = Strategy.name strategy in
      Printf.printf "fig41: %-9s %-10s %7.3f s  %14.0f minor words\n%!" workload
        strategy m.wall_s m.minor_words;
      Printf.sprintf
        {|{"workload": "%s", "strategy": "%s", "wall_s": %.4f, "minor_words": %.0f}|}
        workload strategy m.wall_s m.minor_words)
    [ Strategy.pure_copy; Strategy.pure_iou (); Strategy.hybrid () ]

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
        {|{"strategy": "%s", "overlap": %g, "off_wire_bytes": %d, "on_wire_bytes": %d, "reduction_pct": %.1f, "digest_hits": %d, "pages_checked": %d}|}
        (Strategy.name c.Accent_experiments.Dedup_sweep.strategy)
        c.Accent_experiments.Dedup_sweep.overlap
        (Report.bytes_total c.Accent_experiments.Dedup_sweep.off)
        (Report.bytes_total c.Accent_experiments.Dedup_sweep.on_)
        (Accent_experiments.Dedup_sweep.reduction_pct c)
        c.Accent_experiments.Dedup_sweep.on_.Report.dedup_hits
        c.Accent_experiments.Dedup_sweep.on_.Report.dedup_pages_checked)
    t.Accent_experiments.Dedup_sweep.cells

(* --- driver ------------------------------------------------------------ *)

let () =
  let args =
    Harness.parse ~name:"scale" ~out:"BENCH_scale.json"
      Harness.
        [
          ("--fig41-only", Switch);
          ("--domains", Int);
          ("--sizes", Ints);
          ("--hosts", Ints);
        ]
  in
  let smoke = args.smoke in
  let fig41_only = Harness.switch args "--fig41-only" in
  let domains = Harness.int args "--domains" ~default:1 in
  (* --sizes / --hosts take comma-separated overrides: CI's scale gate
     runs just the 8192/65536 pair instead of the whole sweep.  --hosts
     replaces the unconstrained grid's host list in every mode. *)
  let sizes_override = Harness.int_list args "--sizes" in
  let sizes, hosts =
    match sizes_override with
    | Some sizes -> (sizes, [ 2 ])
    | None when smoke -> ([ 64; 256 ], [ 2; 3 ])
    | None -> ([ 128; 1_024; 8_192; 32_768; 65_536 ], [ 2; 4; 8 ])
  in
  let hosts = Option.value (Harness.int_list args "--hosts") ~default:hosts in
  (* same sweep again against a quarter-size frame pool: spaces that
     exceed it force an eviction per fault, so the sim's own eviction
     path is on the critical path of every one of these points *)
  let constrained =
    if sizes_override <> None then []
    else if smoke then [ (256, 64, 2) ]
    else [ (8_192, 1_024, 2); (8_192, 1_024, 4); (32_768, 1_024, 2) ]
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
          run_trial ?frames ~strategy ~real_pages ~n_hosts ())
        grid
    end
  in
  let probes =
    if smoke || sizes_override <> None then [] else fig41_probe ()
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
  Harness.write_json ~name:"scale" ~smoke ~out:args.out
    [
      ("page_bytes", string_of_int Accent_mem.Page.size);
      ("trials", Harness.rows trials);
      ("dedup_sweep", Harness.rows dedup);
      ("fig41_probe", Harness.rows probes);
    ]
