(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   section (Tables 4-1..4-5, Figures 4-1..4-5) plus the headline-claims
   summary, by running the full 77-trial sweep on the simulated testbed.

   Part 2 runs Bechamel microbenchmarks of the implementation's hot
   primitives (interval maps, the event queue, AMap construction, the
   page generator, and a complete small migration), so
   regressions in the simulator itself are visible.

   Run with: dune exec bench/main.exe
   (use --tables-only or --micro-only to run half) *)

(* --- Per-event tracing statistics ---------------------------------------

   Subscribed to every trial world's Mig_event bus while the sweep runs:
   each trial is a fresh world whose clock restarts near zero, so per-trial
   state resets on [Requested]. *)

module Event_stats = struct
  open Accent_core
  module Stats = Accent_util.Stats

  type t = {
    mutable events : int;
    mutable faults : int;
    mutable last_fault_ms : float option;
    interarrivals_ms : Stats.t;
        (* gaps between consecutive remote faults within one trial *)
    mutable rounds : int;
    mutable last_round : (int * float) option;
    round_gaps_ms : Stats.t;
        (* pacing between consecutive pre-copy rounds of one migration *)
    round_bytes : Stats.t;
  }

  let create () =
    {
      events = 0;
      faults = 0;
      last_fault_ms = None;
      interarrivals_ms = Stats.create ();
      rounds = 0;
      last_round = None;
      round_gaps_ms = Stats.create ();
      round_bytes = Stats.create ();
    }

  let observe t (ev : Mig_event.t) =
    t.events <- t.events + 1;
    let t_ms = Accent_sim.Time.to_ms ev.Mig_event.at in
    match ev.Mig_event.kind with
    | Mig_event.Requested _ ->
        t.last_fault_ms <- None;
        t.last_round <- None
    | Mig_event.Fault _ ->
        t.faults <- t.faults + 1;
        (match t.last_fault_ms with
        | Some prev when t_ms >= prev ->
            Stats.add t.interarrivals_ms (t_ms -. prev)
        | _ -> ());
        t.last_fault_ms <- Some t_ms
    | Mig_event.Precopy_round { round; bytes } ->
        t.rounds <- t.rounds + 1;
        Stats.add t.round_bytes (float_of_int bytes);
        (match t.last_round with
        | Some (r, prev) when round = r + 1 && t_ms >= prev ->
            Stats.add t.round_gaps_ms (t_ms -. prev)
        | _ -> ());
        t.last_round <- Some (round, t_ms)
    | _ -> ()

  (* Percentiles interpolate over the samples (exactly below
     [Stats.default_exact_capacity], within the sketch's relative error
     beyond it). *)
  let describe label s =
    if Stats.count s = 0 then Printf.printf "  %-28s (no samples)\n" label
    else
      Printf.printf
        "  %-28s n=%-6d mean %8.3f  p50 %8.3f  p95 %8.3f  max %8.3f\n" label
        (Stats.count s) (Stats.mean s) (Stats.percentile s 50.)
        (Stats.percentile s 95.) (Stats.max_value s)

  let render t =
    print_endline "Per-event tracing statistics (from the sweep's bus):";
    Printf.printf "  migration events observed     %d\n" t.events;
    Printf.printf "  faults observed               %d\n" t.faults;
    describe "fault interarrival (ms)" t.interarrivals_ms;
    Printf.printf "  pre-copy rounds observed      %d\n" t.rounds;
    describe "pre-copy round gap (ms)" t.round_gaps_ms;
    describe "pre-copy round bytes" t.round_bytes
end

(* The table sweep never runs pre-copy (the paper's strategies only), so
   round-pacing samples come from dedicated live-migration trials. *)
let precopy_trials stats =
  List.iter
    (fun name ->
      match Accent_workloads.Representative.by_name name with
      | None -> ()
      | Some spec ->
          ignore
            (Accent_experiments.Trial.run
               ~on_event:(Event_stats.observe stats)
               ~write_fraction:0.3 ~spec
               ~strategy:(Accent_core.Strategy.pre_copy ()) ()))
    [ "pm-mid"; "chess"; "lisp-del" ]

let run_tables ?csv_dir () =
  print_endline "=====================================================";
  print_endline " Reproduction of Zayas, \"Attacking the Process";
  print_endline " Migration Bottleneck\" (SOSP 1987) - evaluation";
  print_endline "=====================================================";
  print_newline ();
  let stats = Event_stats.create () in
  Accent_experiments.Evaluation.run_all ~progress:true
    ~on_event:(Event_stats.observe stats)
    ?csv_dir ();
  precopy_trials stats;
  print_newline ();
  Event_stats.render stats

(* --- Bechamel microbenchmarks --- *)

open Bechamel
open Toolkit

let bench_interval_map =
  Test.make ~name:"interval_map: 100 set + 1000 find"
    (Staged.stage (fun () ->
         let open Accent_mem in
         let m = ref (Interval_map.empty ()) in
         for i = 0 to 99 do
           m := Interval_map.set !m ~lo:(i * 37 mod 4096) ~hi:((i * 37 mod 4096) + 16) (i mod 3)
         done;
         let hits = ref 0 in
         for i = 0 to 999 do
           if Interval_map.find !m (i * 7 mod 4200) <> None then incr hits
         done;
         !hits))

let bench_event_queue =
  Test.make ~name:"event_queue: 1000 push + drain"
    (Staged.stage (fun () ->
         let open Accent_sim in
         let q = Event_queue.create () in
         for i = 0 to 999 do
           ignore (Event_queue.push q ~time:(float_of_int ((i * 7919) mod 1000)) i)
         done;
         let n = ref 0 in
         let rec drain () =
           match Event_queue.pop q with
           | Some _ ->
               incr n;
               drain ()
           | None -> ()
         in
         drain ();
         !n))

let amap_space =
  (* built once: a mid-sized space with a few hundred regions *)
  lazy
    (let open Accent_mem in
     let mem = Phys_mem.create ~frames:4096 in
     let disk = Paging_disk.create () in
     let space = Address_space.create ~id:999 ~name:"bench" ~mem ~disk in
     Phys_mem.set_evict_handler mem (fun o data ~dirty ->
         ignore o;
         ignore data;
         ignore dirty);
     for i = 0 to 199 do
       let base = i * 8 * Page.size * 2 in
       Address_space.validate_zero space
         (Vaddr.of_len base (4 * Page.size));
       Address_space.install_bytes space
         ~addr:(base + (4 * Page.size))
         (Bytes.make (4 * Page.size) 'b')
         ~resident:(i mod 2 = 0)
     done;
     space)

let bench_amap_build =
  Test.make ~name:"amap: build over 400-region space"
    (Staged.stage (fun () ->
         Accent_mem.Amap.entry_count
           (Accent_mem.Address_space.build_amap (Lazy.force amap_space))))

let bench_page_pattern =
  Test.make ~name:"page: pattern + checksum"
    (Staged.stage (fun () ->
         let open Accent_mem in
         Page.checksum (Page.pattern ~tag:7 42)))

let bench_tiny_migration =
  let spec =
    {
      Accent_workloads.Spec.name = "bench";
      description = "benchmark workload";
      real_bytes = 32 * 512;
      total_bytes = 64 * 512;
      rs_bytes = 16 * 512;
      touched_real_pages = 10;
      rs_touched_overlap = 5;
      real_runs = 3;
      vm_segments = 2;
      pattern =
        Accent_workloads.Access_pattern.Sequential
          { streams = 1; revisit = 0.1; run = 8 };
      refs = 20;
      total_think_ms = 50.;
      zero_touch_pages = 2;
      base_addr = 0x40000;
    }
  in
  Test.make ~name:"simulator: full tiny IOU migration"
    (Staged.stage (fun () ->
         let result =
           Accent_experiments.Trial.run ~spec
             ~strategy:(Accent_core.Strategy.pure_iou ()) ()
         in
         result.Accent_experiments.Trial.report
           .Accent_core.Report.dest_faults_imag))

let microbenchmarks () =
  let tests =
    Test.make_grouped ~name:"primitives" ~fmt:"%s %s"
      [
        bench_interval_map;
        bench_event_queue;
        bench_amap_build;
        bench_page_pattern;
        bench_tiny_migration;
      ]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  print_endline "Microbenchmarks (ns per run, OLS on monotonic clock):";
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> Printf.sprintf "%12.1f" est
        | _ -> "      (n/a)"
      in
      Printf.printf "  %s ns/run  %s\n" ns name)
    results;
  print_newline ()

let run_replication () =
  print_endline "=====================================================";
  print_endline " Replication across seeds";
  print_endline "=====================================================";
  print_newline ();
  print_string
    (Accent_experiments.Replication.render
       (Accent_experiments.Replication.run ()));
  print_newline ()

let run_ablations () =
  print_endline "=====================================================";
  print_endline " Ablations and extensions (DESIGN.md sections 7)";
  print_endline "=====================================================";
  print_newline ();
  Accent_experiments.Ablations.run_all ();
  print_newline ()

let () =
  let args = Array.to_list Sys.argv in
  let only flag = List.mem flag args in
  let all =
    not
      (only "--tables-only" || only "--micro-only" || only "--ablations-only"
      || only "--replication-only")
  in
  let rec csv_dir = function
    | "--csv" :: dir :: _ -> Some dir
    | _ :: rest -> csv_dir rest
    | [] -> None
  in
  let csv_dir = csv_dir args in
  if all || only "--tables-only" then run_tables ?csv_dir ();
  if all || only "--ablations-only" then begin
    print_newline ();
    run_ablations ()
  end;
  if all || only "--replication-only" then begin
    print_newline ();
    run_replication ()
  end;
  if all || only "--micro-only" then begin
    print_newline ();
    microbenchmarks ()
  end
