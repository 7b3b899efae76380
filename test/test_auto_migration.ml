(* Load metrics and the automatic migration policy (the §6 future-work
   direction): dispersion accounting, imbalance-triggered relocation, and
   the data-affinity tiebreak that moves a process toward its backers. *)
open Accent_sim
open Accent_net
open Accent_kernel
open Accent_core

let worker ~name ~base_mb =
  {
    Test_helpers.small_spec with
    Accent_workloads.Spec.name;
    refs = 300;
    total_think_ms = 30_000.;
    base_addr = base_mb * 1024 * 1024;
  }

let test_host_load () =
  let world = World.create ~n_hosts:2 () in
  let h = World.host world 0 in
  Alcotest.(check (float 1e-9)) "idle" 0. (Load_metric.host_load h);
  let p1 =
    Accent_workloads.Spec.build h (worker ~name:"w1" ~base_mb:1)
  in
  Proc_runner.start h p1;
  Alcotest.(check bool) "one live proc" true (Load_metric.host_load h >= 1.);
  ignore (World.run world);
  (* terminated processes do not count as load *)
  Alcotest.(check (float 1e-9)) "terminated" 0. (Load_metric.host_load h)

let test_dispersion_after_partial_migration () =
  (* migrate under IOU, stop mid-run: part of the space is local to host 1,
     the rest is still backed at host 0 *)
  let world, proc =
    Accent_experiments.Trial.build_only ~spec:Test_helpers.small_spec ()
  in
  ignore
    (Migration_manager.migrate (World.manager world 0) ~proc
       ~dest:(Migration_manager.port (World.manager world 1))
       ~strategy:(Strategy.pure_iou ()) ());
  ignore (World.run ~limit:(Time.ms 1500.) world);
  let host1 = World.host world 1 in
  let proc1 = Option.get (Host.find_proc host1 proc.Proc.id) in
  let shares =
    Load_metric.dispersion ~registry:world.World.registry host1 proc1
  in
  let bytes_on host_id = Option.value ~default:0 (List.assoc_opt host_id shares) in
  Alcotest.(check bool) "some memory now local to host 1" true
    (bytes_on 1 > 0);
  Alcotest.(check bool) "remainder still backed at host 0" true
    (bytes_on 0 > 0);
  Alcotest.(check int) "everything placed"
    Test_helpers.small_spec.Accent_workloads.Spec.real_bytes
    (bytes_on 0 + bytes_on 1);
  (* affinity agrees with the shares *)
  let a0 =
    Load_metric.affinity ~registry:world.World.registry host1 proc1 ~host_id:0
  in
  Alcotest.(check bool) "affinity to the backer in (0,1)" true
    (a0 > 0. && a0 < 1.);
  ignore (World.run world)

let test_auto_migrator_balances () =
  let world = World.create ~n_hosts:3 () in
  let h0 = World.host world 0 in
  let procs =
    List.init 4 (fun i ->
        Accent_workloads.Spec.build h0 (worker ~name:(Printf.sprintf "w%d" i) ~base_mb:(1 + (8 * i))))
  in
  List.iter (fun p -> Proc_runner.start h0 p) procs;
  let decisions = Test_helpers.auto_candidates world in
  let migrator =
    Auto_migrator.start world
      { Auto_migrator.default_policy with Auto_migrator.period_ms = 1_000. }
  in
  ignore (World.run world);
  (* all four finished, and the balancer spread some of them out *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "worker finished" true (Proc.is_done p))
    procs;
  Alcotest.(check bool) "migrations happened" true
    (Auto_migrator.migrations_triggered migrator >= 1);
  let placements =
    List.map
      (fun i -> Host.proc_count (World.host world i))
      [ 0; 1; 2 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "spread across hosts (got %s)"
       (String.concat "," (List.map string_of_int placements)))
    true
    (List.length (List.filter (fun c -> c > 0) placements) >= 2);
  (* the decision log is coherent *)
  List.iter
    (fun (_, _, src, dst) ->
      Alcotest.(check bool) "moves off the loaded host" true (src <> dst))
    (decisions ())

let test_auto_migrator_publishes_decisions () =
  (* the same imbalanced setup as the balancing test, with a bus observer:
     every migration must be explained by a threshold crossing and a
     candidate choice on the event stream *)
  let world = World.create ~n_hosts:3 () in
  let h0 = World.host world 0 in
  let procs =
    List.init 4 (fun i ->
        Accent_workloads.Spec.build h0
          (worker ~name:(Printf.sprintf "w%d" i) ~base_mb:(1 + (8 * i))))
  in
  List.iter (fun p -> Proc_runner.start h0 p) procs;
  let thresholds = ref [] and candidates = ref [] in
  World.on_migration_event world (fun ev ->
      match ev.Mig_event.kind with
      | Mig_event.Auto_threshold { src; spread } ->
          thresholds := (ev.Mig_event.proc_id, src, spread) :: !thresholds
      | Mig_event.Auto_candidate { proc_name; src; dst } ->
          candidates := (ev.Mig_event.proc_id, proc_name, src, dst)
          :: !candidates
      | _ -> ());
  let migrator =
    Auto_migrator.start world
      { Auto_migrator.default_policy with Auto_migrator.period_ms = 1_000. }
  in
  ignore (World.run world);
  let triggered = Auto_migrator.migrations_triggered migrator in
  Alcotest.(check bool) "migrations happened" true (triggered >= 1);
  Alcotest.(check int) "one candidate event per migration" triggered
    (List.length !candidates);
  Alcotest.(check bool) "threshold crossings precede candidates" true
    (List.length !thresholds >= List.length !candidates);
  (* the default policy is Placement_policy.threshold with its default
     imbalance threshold *)
  let default_threshold = 1.5 in
  List.iter
    (fun (_, src, spread) ->
      Alcotest.(check bool) "spread above the policy threshold" true
        (spread > default_threshold);
      Alcotest.(check bool) "overloaded host named" true (src >= 0 && src < 3))
    !thresholds;
  (* each candidate names a real process moving between two hosts *)
  List.iter
    (fun (proc_id, name, src, dst) ->
      Alcotest.(check bool) "named process" true (name <> "");
      Alcotest.(check bool) "moves between hosts" true
        (src <> dst && src >= 0 && src < 3 && dst >= 0 && dst < 3);
      Alcotest.(check bool) "real proc id" true (proc_id >= 0))
    !candidates

let test_auto_migrator_respects_threshold () =
  (* one process on each of two hosts: balanced, nothing should move *)
  let world = World.create ~n_hosts:2 () in
  List.iteri
    (fun i host_id ->
      let p =
        Accent_workloads.Spec.build
          (World.host world host_id)
          (worker ~name:(Printf.sprintf "b%d" i) ~base_mb:1)
      in
      Proc_runner.start (World.host world host_id) p)
    [ 0; 1 ];
  let migrator = Auto_migrator.start world Auto_migrator.default_policy in
  ignore (World.run world);
  Alcotest.(check int) "no migrations when balanced" 0
    (Auto_migrator.migrations_triggered migrator)

let test_affinity_pull () =
  (* host 2 idle, host 1 idle, but the candidate's memory is all backed on
     host 2: the affinity-weighted score must pick host 2 *)
  let world = World.create ~n_hosts:3 () in
  let world_reg = world.World.registry in
  let h0 = World.host world 0 in
  (* proc on host 0 whose space is entirely an IOU backed by host 2 *)
  let backing = Test_helpers.new_backer (World.host world 2) in
  let segment_id = Backing_server.new_segment backing in
  Backing_server.put_bytes backing ~segment_id ~offset:0
    (Bytes.make (16 * 512) 'z');
  let space = Host.new_space h0 in
  Test_helpers.map_segment h0 backing space ~at:0 ~segment_id ~offset:0
    ~len:(16 * 512);
  let proc =
    Host.spawn h0 ~name:"pull"
      ~trace:
        (Trace.of_steps
           (List.init 16 (fun i -> Trace.step_read ~think_ms:100. i)))
      ~space ()
  in
  Alcotest.(check (float 1e-9)) "full affinity to host 2" 1.
    (Load_metric.affinity ~registry:world_reg h0 proc ~host_id:2);
  Alcotest.(check (float 1e-9)) "no affinity to host 1" 0.
    (Load_metric.affinity ~registry:world_reg h0 proc ~host_id:1);
  ignore world

let suite =
  ( "auto_migration",
    [
      Alcotest.test_case "host load" `Quick test_host_load;
      Alcotest.test_case "dispersion" `Quick
        test_dispersion_after_partial_migration;
      Alcotest.test_case "balances load" `Quick test_auto_migrator_balances;
      Alcotest.test_case "publishes decisions" `Quick
        test_auto_migrator_publishes_decisions;
      Alcotest.test_case "respects threshold" `Quick
        test_auto_migrator_respects_threshold;
      Alcotest.test_case "affinity pull" `Quick test_affinity_pull;
    ] )

(* --- the cluster scenario experiment --- *)

let test_cluster_scenario_outcomes () =
  let config =
    {
      Accent_experiments.Cluster_scenario.default_config with
      Accent_experiments.Cluster_scenario.n_jobs = 4;
      job_think_ms = 10_000.;
    }
  in
  let outcomes =
    Accent_experiments.Cluster_scenario.compare_policies ~config ()
  in
  Alcotest.(check int) "three policies" 3 (List.length outcomes);
  let find label =
    List.find
      (fun o -> o.Accent_experiments.Cluster_scenario.label = label)
      outcomes
  in
  let unmanaged = find "unmanaged" in
  let levelled = find "load-levelling" in
  Alcotest.(check int) "no migrations unmanaged" 0
    unmanaged.Accent_experiments.Cluster_scenario.migrations;
  (* a relocated job loses its arrival-time completion callback; the
     turnaround mean must still count it *)
  List.iter
    (fun o ->
      Alcotest.(check int)
        (o.Accent_experiments.Cluster_scenario.label ^ " averages every job")
        4 o.Accent_experiments.Cluster_scenario.completed)
    outcomes;
  Alcotest.(check bool) "the managed rows relocated jobs" true
    (levelled.Accent_experiments.Cluster_scenario.migrations > 0
    && (find "load + affinity").Accent_experiments.Cluster_scenario.migrations
       > 0);
  Alcotest.(check bool) "balancing cuts the makespan" true
    (levelled.Accent_experiments.Cluster_scenario.makespan_s
    < unmanaged.Accent_experiments.Cluster_scenario.makespan_s *. 0.8);
  Alcotest.(check bool) "turnaround improves too" true
    (levelled.Accent_experiments.Cluster_scenario.mean_turnaround_s
    < unmanaged.Accent_experiments.Cluster_scenario.mean_turnaround_s);
  let rendered = Accent_experiments.Cluster_scenario.render outcomes in
  Alcotest.(check bool) "renders" true
    (Test_helpers.contains rendered "unmanaged");
  (* the whole table, byte for byte *)
  Alcotest.(check string) "render pinned" "58b4f8e5d24a00ab95014ff8ec4912be"
    (Digest.to_hex (Digest.string rendered))

let test_utilization_rows () =
  let result =
    Accent_experiments.Trial.run ~spec:Test_helpers.small_spec
      ~strategy:(Strategy.pure_iou ()) ()
  in
  let t =
    Accent_experiments.Utilization.table ~duration_s:10.
      result.Accent_experiments.Trial.world
  in
  let column = Test_helpers.column t in
  Alcotest.(check int) "one row per host" 2
    (List.length (Accent_experiments.Result_table.rows t));
  Alcotest.(check bool) "destination executed the process" true
    (List.nth (column "exec_busy_s") 1 > 0.);
  Alcotest.(check bool) "both sides handled messages" true
    (List.for_all (fun n -> n > 0.) (column "nms_messages"));
  let rendered = Accent_experiments.Result_table.text t in
  Alcotest.(check bool) "renders" true (Test_helpers.contains rendered "host0")

let extra_cases =
  [
    Alcotest.test_case "cluster scenario" `Quick test_cluster_scenario_outcomes;
    Alcotest.test_case "utilization rows" `Quick test_utilization_rows;
  ]

let suite = (fst suite, snd suite @ extra_cases)
