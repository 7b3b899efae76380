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
   RIMAS or push round names one no migration is tracking.  None may
   raise, park or stage anything, or leave the manager unable to serve a
   real migration. *)
let test_malformed_then_real_migration () =
  let world = World.create ~n_hosts:2 () in
  send_to_manager world
    (Transfer_engine.Mig_push_ack { proc_id = 424242; round = 1 });
  send_to_manager world (Transfer_engine.Mig_rimas { proc_id = 424242 });
  send_to_manager world
    ~memory:
      [
        {
          Memory_object.range = Vaddr.range 0 Page.size;
          content = Memory_object.Data (Page_run.singleton Page.zero_value);
        };
      ]
    (Transfer_engine.Mig_push_pages
       {
         proc_id = 424243;
         round = 1;
         src_port = Migration_manager.port (World.manager world 0);
       });
  ignore (World.run world);
  World.audit world;
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
    (report.Report.completed_at <> None);
  World.audit world

(* A lone Core parks in the engine's arrival table waiting for its
   RIMAS; a transport give-up must clear the entry (the RIMAS will never
   come) and end the migration. *)
let test_giveup_clears_pending_core () =
  let world = World.create ~n_hosts:2 () in
  let host0 = World.host world 0 in
  let manager1 = World.manager world 1 in
  let bus = Migration_manager.bus manager1 in
  let proc = Accent_workloads.Spec.build host0 Test_helpers.small_spec in
  let report = Report.create ~proc_name:"crafted" ~strategy:Strategy.pure_copy in
  Mig_event.register bus ~proc_id:proc.Proc.id (Report.apply report);
  Excise.excise host0 proc ~k:(fun excised ->
      Kernel_ipc.send (Host.kernel host0)
        (Message.make ~ids:(Host.ids host0)
           ~dest:(Migration_manager.port manager1)
           ~inline_bytes:128
           (Transfer_engine.Mig_core
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
  Test_helpers.audit_names world "host 1 transfer.inbound = 1";
  Mig_event.publish bus
    {
      Mig_event.at = Accent_sim.Engine.now (Host.engine host0);
      proc_id = proc.Proc.id;
      kind = Mig_event.Transport_give_up;
    };
  World.audit world;
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

(* The replayed stream, settled against the same quiescent world, must
   equal the live report field for field: one structural comparison
   covers every phase stamp, counter, traffic total, checkpoint field and
   the outcome. *)
let replay_matches ?costs strategy () =
  let events = ref [] in
  let result =
    Accent_experiments.Trial.run ?costs ~write_fraction:0.1
      ~on_event:(fun ev -> events := ev :: !events)
      ~spec:Test_helpers.small_spec ~strategy ()
  in
  let world = result.Accent_experiments.Trial.world in
  let proc_id = result.Accent_experiments.Trial.proc.Proc.id in
  Alcotest.(check bool) "events were published" true (!events <> []);
  match Report.replay ~proc_id (List.rev !events) with
  | None -> Alcotest.fail "no Requested event in the stream"
  | Some folded ->
      Alcotest.(check bool)
        "settled replay = live report" true
        (Report.settle folded ~monitor:world.World.monitor
           ~hosts:world.World.hosts
        = result.Accent_experiments.Trial.report)

(* --- per-strategy pin ------------------------------------------------------ *)

(* A two-host migration of [small_spec] after 30 ms of source execution,
   reduced to one MD5: every bus event as (virtual time, kind, proc id),
   then the run's wire bytes.  The literals below were recorded before
   the transfer engines were merged into one; any change to event order,
   event timing or wire traffic under any strategy moves them.  Every
   engine counter must also be back at zero on both hosts. *)
let pinned =
  [
    (("copy", false), "e2929d6d2708f782ad29b7224578f5d3");
    (("iou", false), "56137f30c68f535e01db00c5d47134a2");
    (("rs", false), "19895f138565cef0acf182855c75714e");
    (("ws", false), "8fd0b8f44dc1089c4630d516c4906625");
    (("precopy", false), "2a919dbcfab6f721595f935d471af325");
    (("hybrid", false), "caadff52de789ff452bfeb5f67007124");
    (("copy", true), "3a00ee06def09180429dbbc252cfc2ab");
    (("iou", true), "ee31b9390fedb3c13522f4adb4231c9e");
    (("rs", true), "737f90deeffb739bb198d69878c4e803");
    (("ws", true), "d864adff4e5658cf293bb33741b9a6bb");
    (("precopy", true), "603ecbc14b22fa7195a9afbd070dedc9");
    (("hybrid", true), "b91eb002de2033c6d1dc863107138189");
  ]

let test_strategy_pinned ~dedup strategy () =
  let buf = Buffer.create 4096 in
  let result =
    Accent_experiments.Trial.run
      ?costs:(if dedup then Some Test_helpers.dedup_costs else None)
      ~write_fraction:0.1 ~migrate_after_ms:30.
      ~on_event:(fun ev ->
        Printf.bprintf buf "%h %s %d\n"
          (Accent_sim.Time.to_ms ev.Mig_event.at)
          (Mig_event.kind_name ev.Mig_event.kind)
          ev.Mig_event.proc_id)
      ~spec:Test_helpers.small_spec ~strategy ()
  in
  let world = result.Accent_experiments.Trial.world in
  Printf.bprintf buf "wire %d\n"
    (Accent_net.Transfer_monitor.bytes_total world.World.monitor);
  let name = Strategy.name strategy in
  Alcotest.(check string)
    "event stream and wire bytes"
    (List.assoc (name, dedup) pinned)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

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
        strategies
    @ List.concat_map
        (fun dedup ->
          List.map
            (fun strategy ->
              Alcotest.test_case
                (Printf.sprintf "pinned stream (%s%s)"
                   (Strategy.name strategy)
                   (if dedup then " dedup" else ""))
                `Quick
                (test_strategy_pinned ~dedup strategy))
            strategies)
        [ false; true ] )
