(* Failure injection: the residual-dependency hazard of lazy migration.
   A process relocated copy-on-reference depends on the source until the
   last page is fetched; if the backing site dies, so does the process.
   Pure-copy has no such window once the transfer completes. *)
open Accent_sim
open Accent_net
open Accent_kernel
open Accent_core

let spec =
  {
    Test_helpers.small_spec with
    Accent_workloads.Spec.name = "Fragile";
    refs = 200;
    total_think_ms = 20_000.;
  }

(* Fast timeout so the tests stay quick. *)
let costs =
  { Cost_model.default with Cost_model.fault_timeout_ms = 2_000. }

let migrate_then_crash ~strategy ~crash_at =
  let world = World.create ~costs ~n_hosts:2 () in
  let proc = Accent_workloads.Spec.build (World.host world 0) spec in
  let report =
    Migration_manager.migrate (World.manager world 0) ~proc
      ~dest:(Migration_manager.port (World.manager world 1))
      ~strategy ()
  in
  ignore
    (Engine.schedule world.World.engine ~delay:(Time.ms crash_at) (fun () ->
         Accent_net.Netmsgserver.fail_backing
           (Host.nms (World.host world 0))));
  ignore (World.run world);
  let relocated =
    Option.get (Host.find_proc (World.host world 1) proc.Proc.id)
  in
  (world, relocated, report)

let test_source_crash_kills_lazy_process () =
  let world, proc, report =
    migrate_then_crash ~strategy:(Strategy.pure_iou ()) ~crash_at:4_000.
  in
  Alcotest.(check bool) "process failed" true proc.Proc.failed;
  Alcotest.(check bool) "did not complete" true
    (report.Report.completed_at = None);
  Alcotest.(check bool) "not all of the trace executed" true
    (not (Proc.is_done proc));
  Alcotest.(check bool) "a fault timed out" true
    (Pager.fault_timeouts (Host.pager (World.host world 1)) >= 1)

let test_source_crash_harmless_after_copy () =
  let _, proc, report =
    migrate_then_crash ~strategy:Strategy.pure_copy ~crash_at:4_000.
  in
  (* everything was physically shipped: the crash has nothing to take *)
  Alcotest.(check bool) "process unharmed" false proc.Proc.failed;
  Alcotest.(check bool) "completed" true (report.Report.completed_at <> None)

let test_crash_after_last_fetch_is_harmless () =
  (* crash the backer only after remote execution has finished: by then
     every page the process wanted is local and the death notice already
     retired the segment *)
  let world, proc, report =
    migrate_then_crash ~strategy:(Strategy.pure_iou ()) ~crash_at:3.0e6
  in
  ignore world;
  Alcotest.(check bool) "process unharmed" false proc.Proc.failed;
  Alcotest.(check bool) "completed" true (report.Report.completed_at <> None)

let test_timeout_counts_once_per_fault () =
  let world, proc, _ =
    migrate_then_crash ~strategy:(Strategy.pure_iou ()) ~crash_at:4_000.
  in
  ignore proc;
  (* a single blocked reference produces a single timeout, not a storm *)
  Alcotest.(check int) "exactly one timeout" 1
    (Pager.fault_timeouts (Host.pager (World.host world 1)))

let test_rs_survives_nms_crash () =
  (* under RS the non-resident remainder is backed by the MigrationManager
     itself, not the NetMsgServer cache — so crashing the NMS cache alone
     is harmless *)
  let _, proc, report =
    migrate_then_crash ~strategy:(Strategy.resident_set ()) ~crash_at:4_000.
  in
  Alcotest.(check bool) "unharmed by NMS crash" false proc.Proc.failed;
  Alcotest.(check bool) "completed" true (report.Report.completed_at <> None)

let test_rs_dies_with_its_manager_backer () =
  (* ...but if the manager's own backing server dies, the residual
     dependency bites exactly as it does for pure IOU *)
  let world = World.create ~costs ~n_hosts:2 () in
  let proc = Accent_workloads.Spec.build (World.host world 0) spec in
  let report =
    Migration_manager.migrate (World.manager world 0) ~proc
      ~dest:(Migration_manager.port (World.manager world 1))
      ~strategy:(Strategy.resident_set ()) ()
  in
  ignore
    (Engine.schedule world.World.engine ~delay:(Time.ms 4_000.) (fun () ->
         Backing_server.fail (Migration_manager.backing (World.manager world 0))));
  ignore (World.run world);
  let relocated =
    Option.get (Host.find_proc (World.host world 1) proc.Proc.id)
  in
  Alcotest.(check bool) "eventually failed" true relocated.Proc.failed;
  Alcotest.(check bool) "did not complete" true
    (report.Report.completed_at = None);
  Alcotest.(check bool) "made progress on shipped pages first" true
    (relocated.Proc.pcb.Pcb.pc > 0)

(* --- network partitions against the reliable transport ---------------- *)

let partition_world ~start_ms ~duration_ms =
  let fault_plan =
    Accent_net.Fault_plan.with_partition ~between:(0, 1) ~start_ms ~duration_ms
      Accent_net.Fault_plan.none
  in
  let world = World.create ~costs ~fault_plan ~n_hosts:2 () in
  let proc = Accent_workloads.Spec.build (World.host world 0) spec in
  (world, proc)

let test_partition_healed_before_timeout () =
  (* the partition opens while migration traffic is in flight and heals
     well inside both the retry span and the 2 s pager timeout: bounded
     retransmission must bridge it and the process must finish *)
  let world, proc = partition_world ~start_ms:300. ~duration_ms:800. in
  let report =
    World.migrate_and_run world ~proc ~src:0 ~dst:1
      ~strategy:(Strategy.pure_iou ())
  in
  Alcotest.(check bool) "completed" true (report.Report.completed_at <> None);
  Alcotest.(check bool) "outcome completed" true
    (report.Report.outcome = Report.Completed);
  Alcotest.(check bool) "the partition cost retransmissions" true
    (report.Report.retransmits > 0);
  Alcotest.(check int) "no fault timed out" 0
    (Pager.fault_timeouts (Host.pager (World.host world 1)));
  let relocated =
    Option.get (Host.find_proc (World.host world 1) proc.Proc.id)
  in
  Alcotest.(check bool) "process unharmed" false relocated.Proc.failed

let test_partition_outlasting_retries_degrades () =
  (* the partition opens after the process has restarted remotely and
     never heals in time: the transport gives up, the pager kills the
     faulting process, and the trial reports Degraded instead of hanging *)
  let world, proc = partition_world ~start_ms:1_500. ~duration_ms:100_000. in
  let report =
    World.migrate_and_run world ~proc ~src:0 ~dst:1
      ~strategy:(Strategy.pure_iou ())
  in
  Alcotest.(check bool) "did not complete" true
    (report.Report.completed_at = None);
  Alcotest.(check bool) "restarted before the cut" true
    (report.Report.restarted_at <> None);
  Alcotest.(check bool) "outcome degraded" true
    (report.Report.outcome = Report.Degraded);
  Alcotest.(check bool) "transport gave up" true
    (report.Report.transport_give_ups > 0);
  let relocated =
    Option.get (Host.find_proc (World.host world 1) proc.Proc.id)
  in
  Alcotest.(check bool) "process killed by the pager" true
    relocated.Proc.failed;
  (* the world must drain: give-up after ~6.4 s of retries, pager timeout
     at 2 s — nothing should still be scheduled minutes later *)
  Alcotest.(check bool) "no hang" true
    (Accent_sim.Time.to_seconds (World.now world) < 120.)

let test_partition_during_transfer_aborts () =
  (* the partition covers the context transfer itself: Core and RIMAS are
     abandoned, the process never restarts anywhere remote *)
  let world, proc = partition_world ~start_ms:0. ~duration_ms:100_000. in
  let report =
    World.migrate_and_run world ~proc ~src:0 ~dst:1
      ~strategy:(Strategy.pure_iou ())
  in
  Alcotest.(check bool) "never restarted" true
    (report.Report.restarted_at = None);
  Alcotest.(check bool) "outcome aborted" true
    (report.Report.outcome = Report.Aborted);
  Alcotest.(check bool) "transport gave up" true
    (report.Report.transport_give_ups > 0);
  Alcotest.(check bool) "gave up promptly" true
    (Accent_sim.Time.to_seconds (World.now world) < 60.)

(* Give-ups the bus never hears of: at 30% fragment loss the transport
   abandons three messages that belong to no migration (stray acks and
   retried traffic), no Transport_give_up event is published, and the
   process still finishes.  Only the post-run traffic snapshot can mark
   this migration Degraded. *)
let test_completed_despite_give_ups_degrades () =
  let events = ref [] in
  let result =
    Accent_experiments.Trial.run ~fault_plan:(Fault_plan.iid 0.30)
      ~on_event:(fun ev -> events := ev :: !events)
      ~spec:Accent_workloads.Representative.pm_start
      ~strategy:(Strategy.pure_iou ()) ()
  in
  let report = result.Accent_experiments.Trial.report in
  Alcotest.(check bool) "completed" true (report.Report.completed_at <> None);
  Alcotest.(check int) "three give-ups" 3 report.Report.transport_give_ups;
  Alcotest.(check bool) "outcome degraded" true
    (report.Report.outcome = Report.Degraded);
  Alcotest.(check bool) "no give-up on the bus" false
    (List.exists
       (fun ev -> ev.Mig_event.kind = Mig_event.Transport_give_up)
       !events)

let suite =
  ( "failures",
    [
      Alcotest.test_case "source crash kills lazy process" `Quick
        test_source_crash_kills_lazy_process;
      Alcotest.test_case "crash harmless after pure copy" `Quick
        test_source_crash_harmless_after_copy;
      Alcotest.test_case "crash harmless after last fetch" `Quick
        test_crash_after_last_fetch_is_harmless;
      Alcotest.test_case "one timeout per blocked fault" `Quick
        test_timeout_counts_once_per_fault;
      Alcotest.test_case "RS survives NMS crash" `Quick
        test_rs_survives_nms_crash;
      Alcotest.test_case "RS dies with its manager backer" `Quick
        test_rs_dies_with_its_manager_backer;
      Alcotest.test_case "partition healed before timeout" `Quick
        test_partition_healed_before_timeout;
      Alcotest.test_case "partition outlasting retries degrades" `Quick
        test_partition_outlasting_retries_degrades;
      Alcotest.test_case "partition during transfer aborts" `Quick
        test_partition_during_transfer_aborts;
      Alcotest.test_case "completed despite give-ups degrades" `Quick
        test_completed_despite_give_ups_degrades;
    ] )
