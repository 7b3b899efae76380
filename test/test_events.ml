(* The migration event bus: the manager must shrug off unknown or
   malformed traffic on its port, and a report rebuilt by folding the
   recorded event stream must agree with the live report the fold
   maintained during the run — for every transfer strategy. *)
open Accent_mem
open Accent_ipc
open Accent_kernel
open Accent_core

type Message.payload += Bogus | Bogus_with_memory

(* --- dispatch robustness ------------------------------------------------ *)

let send_to_manager world ?memory payload =
  let host = World.host world 0 in
  Kernel_ipc.send (Host.kernel host)
    (Message.make ~ids:(Host.ids host)
       ~dest:(Migration_manager.port (World.manager world 0))
       ~inline_bytes:32 ?memory payload)

let test_unknown_payload () =
  let world = World.create ~n_hosts:1 () in
  send_to_manager world Bogus;
  ignore (World.run world);
  Alcotest.(check pass) "unknown payload did not raise" () ()

let test_unknown_payload_with_memory () =
  let world = World.create ~n_hosts:1 () in
  send_to_manager world Bogus_with_memory
    ~memory:
      [
        {
          Memory_object.range = Vaddr.range 0 512;
          content =
            Memory_object.Data
              (Accent_mem.Page_run.singleton Accent_mem.Page.zero_value);
        };
      ];
  ignore (World.run world);
  Alcotest.(check pass) "unknown payload with memory did not raise" () ()

(* A stray push ack names a proc the manager is not migrating; a stray
   RIMAS half-populates the reassembly table.  Neither may raise, and
   neither may leave the manager unable to serve a real migration. *)
let test_malformed_then_real_migration () =
  let world = World.create ~n_hosts:2 () in
  send_to_manager world (Engine_push.Mig_push_ack { proc_id = 424242; round = 1 });
  send_to_manager world (Engine_copy.Mig_rimas { proc_id = 424242 });
  ignore (World.run world);
  let proc =
    Accent_workloads.Spec.build (World.host world 0) Test_helpers.small_spec
  in
  let report =
    Migration_manager.migrate (World.manager world 0) ~proc
      ~dest:(Migration_manager.port (World.manager world 1))
      ~strategy:Strategy.pure_copy ()
  in
  ignore (World.run world);
  Alcotest.(check bool)
    "migration after junk still completes" true
    (report.Report.completed_at <> None)

(* A lone Core parks in the classic engine's arrival table waiting for its
   RIMAS; a transport give-up must clear the entry (the RIMAS will never
   come) and end the migration. *)
let test_giveup_clears_pending_core () =
  let world = World.create ~n_hosts:2 () in
  let host0 = World.host world 0 in
  let manager1 = World.manager world 1 in
  let bus = Migration_manager.bus manager1 in
  let proc = Accent_workloads.Spec.build host0 Test_helpers.small_spec in
  let report = Report.create ~proc_name:"crafted" ~strategy:Strategy.pure_copy in
  Mig_event.register bus ~proc_id:proc.Proc.id report;
  Excise.excise host0 proc ~k:(fun excised ->
      Kernel_ipc.send (Host.kernel host0)
        (Message.make ~ids:(Host.ids host0)
           ~dest:(Migration_manager.port manager1)
           ~inline_bytes:128
           (Engine_copy.Mig_core
              {
                core = excised.Excise.core;
                handoff =
                  {
                    Transfer_engine.report;
                    prefetch = 0;
                    on_complete = None;
                    on_restart = None;
                  };
              })));
  ignore (World.run world);
  let pending () =
    List.assoc "pending"
      (List.assoc "copy" (Migration_manager.engine_stats manager1))
  in
  Alcotest.(check int) "lone Core parked" 1 (pending ());
  Mig_event.publish bus
    {
      Mig_event.at = Accent_sim.Engine.now (Host.engine host0);
      proc_id = proc.Proc.id;
      kind = Mig_event.Transport_give_up;
    };
  Alcotest.(check int) "give-up cleared the arrival table" 0 (pending ());
  Alcotest.(check bool)
    "give-up ended the migration" true
    (report.Report.outcome <> Report.Completed)

(* --- on_restart under every strategy ------------------------------------ *)

let strategies =
  [
    Strategy.pure_copy;
    Strategy.pure_iou ();
    Strategy.resident_set ();
    Strategy.working_set ();
    Strategy.pre_copy ();
    Strategy.hybrid ();
  ]

(* Every final context message carries the caller's [on_restart]: it
   fires exactly once, at the destination, before the relocated process
   finishes and its Outcome is published. *)
let test_on_restart_fires_once strategy () =
  let world = World.create ~n_hosts:2 () in
  let host0 = World.host world 0 in
  let proc = Accent_workloads.Spec.build host0 Test_helpers.small_spec in
  let log = ref [] in
  World.on_migration_event world (fun ev ->
      match ev.Mig_event.kind with
      | Mig_event.Outcome _ when ev.Mig_event.proc_id = proc.Proc.id ->
          log := "outcome" :: !log
      | _ -> ());
  (* live strategies need the process executing at the source *)
  (match strategy.Strategy.transfer with
  | Strategy.Pre_copy _ | Strategy.Working_set _ | Strategy.Hybrid _ ->
      Proc_runner.start host0 proc
  | Strategy.Pure_copy | Strategy.Pure_iou | Strategy.Resident_set -> ());
  let _report =
    Migration_manager.migrate (World.manager world 0) ~proc
      ~dest:(Migration_manager.port (World.manager world 1))
      ~strategy
      ~on_restart:(fun _ -> log := "restart" :: !log)
      ()
  in
  ignore (World.run world);
  Alcotest.(check (list string))
    "on_restart once, then Outcome" [ "restart"; "outcome" ] (List.rev !log)

(* --- event stream <-> report equivalence -------------------------------- *)

let check_time name a b =
  Alcotest.(check (option (float 1e-9))) name a b

let check_equivalent ~live ~folded =
  check_time "requested_at" live.Report.requested_at folded.Report.requested_at;
  check_time "excised_at" live.Report.excised_at folded.Report.excised_at;
  check_time "core_delivered_at" live.Report.core_delivered_at
    folded.Report.core_delivered_at;
  check_time "rimas_delivered_at" live.Report.rimas_delivered_at
    folded.Report.rimas_delivered_at;
  check_time "inserted_at" live.Report.inserted_at folded.Report.inserted_at;
  check_time "restarted_at" live.Report.restarted_at folded.Report.restarted_at;
  check_time "completed_at" live.Report.completed_at folded.Report.completed_at;
  check_time "frozen_at" live.Report.frozen_at folded.Report.frozen_at;
  Alcotest.(check (option (float 1e-9)))
    "insert_ms" live.Report.insert_ms folded.Report.insert_ms;
  Alcotest.(check bool)
    "excise timings" true
    (live.Report.excise = folded.Report.excise);
  Alcotest.(check int)
    "precopy_rounds" live.Report.precopy_rounds folded.Report.precopy_rounds;
  Alcotest.(check int)
    "precopy_bytes" live.Report.precopy_bytes folded.Report.precopy_bytes;
  Alcotest.(check int)
    "dest_faults_zero" live.Report.dest_faults_zero
    folded.Report.dest_faults_zero;
  Alcotest.(check int)
    "dest_faults_disk" live.Report.dest_faults_disk
    folded.Report.dest_faults_disk;
  Alcotest.(check int)
    "dest_faults_imag" live.Report.dest_faults_imag
    folded.Report.dest_faults_imag;
  Alcotest.(check int)
    "prefetch_extra" live.Report.prefetch_extra folded.Report.prefetch_extra;
  Alcotest.(check int)
    "prefetch_hits" live.Report.prefetch_hits folded.Report.prefetch_hits;
  Alcotest.(check int)
    "remote_touched_pages" live.Report.remote_touched_pages
    folded.Report.remote_touched_pages;
  Alcotest.(check int)
    "remote_real_bytes_fetched" live.Report.remote_real_bytes_fetched
    folded.Report.remote_real_bytes_fetched;
  Alcotest.(check int)
    "dedup_pages_checked" live.Report.dedup_pages_checked
    folded.Report.dedup_pages_checked;
  Alcotest.(check int)
    "dedup_hits" live.Report.dedup_hits folded.Report.dedup_hits;
  Alcotest.(check int)
    "dedup_bytes_elided" live.Report.dedup_bytes_elided
    folded.Report.dedup_bytes_elided

let replay_matches ?costs strategy () =
  let events = ref [] in
  let result =
    Accent_experiments.Trial.run ?costs ~write_fraction:0.1
      ~on_event:(fun ev -> events := ev :: !events)
      ~spec:Test_helpers.small_spec ~strategy ()
  in
  let proc_id = result.Accent_experiments.Trial.proc.Proc.id in
  Alcotest.(check bool) "events were published" true (!events <> []);
  match Mig_event.fold_report ~proc_id (List.rev !events) with
  | None -> Alcotest.fail "no Requested event in the stream"
  | Some folded ->
      check_equivalent ~live:result.Accent_experiments.Trial.report ~folded

let suite =
  ( "migration_events",
    [
      Alcotest.test_case "unknown payload ignored" `Quick test_unknown_payload;
      Alcotest.test_case "unknown payload with memory ignored" `Quick
        test_unknown_payload_with_memory;
      Alcotest.test_case "malformed traffic then real migration" `Quick
        test_malformed_then_real_migration;
      Alcotest.test_case "give-up clears a parked Core" `Quick
        test_giveup_clears_pending_core;
      Alcotest.test_case "replay = live report (pure-copy)" `Quick
        (replay_matches Strategy.pure_copy);
      Alcotest.test_case "replay = live report (pure-IOU pf3)" `Quick
        (replay_matches (Strategy.pure_iou ~prefetch:3 ()));
      Alcotest.test_case "replay = live report (resident-set)" `Quick
        (replay_matches (Strategy.resident_set ()));
      Alcotest.test_case "replay = live report (working-set)" `Quick
        (replay_matches (Strategy.working_set ()));
      Alcotest.test_case "replay = live report (pre-copy)" `Quick
        (replay_matches (Strategy.pre_copy ()));
      Alcotest.test_case "replay = live report (hybrid)" `Quick
        (replay_matches (Strategy.hybrid ()));
      Alcotest.test_case "replay = live report (pure-copy, dedup)" `Quick
        (replay_matches ~costs:Test_helpers.dedup_costs Strategy.pure_copy);
      Alcotest.test_case "replay = live report (hybrid, dedup)" `Quick
        (replay_matches ~costs:Test_helpers.dedup_costs (Strategy.hybrid ()));
    ]
    @ List.map
        (fun strategy ->
          Alcotest.test_case
            (Printf.sprintf "on_restart fires once (%s)" (Strategy.name strategy))
            `Quick
            (test_on_restart_fires_once strategy))
        strategies )
