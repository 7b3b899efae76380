(* The pre-copy baseline (Theimer's V system, discussed in §5): iterative
   shipment of a live process, dirty-page re-send, freeze for the residual
   only.  Verifies the mechanism, the data (including pages dirtied
   mid-migration), and the tradeoff the paper points at: minimal downtime
   but no reduction in total transfer cost. *)
open Accent_mem
open Accent_kernel
open Accent_core
open Accent_experiments

(* A spec that runs long enough at the source for several rounds, with a
   meaningful store rate. *)
let spec =
  {
    Test_helpers.small_spec with
    Accent_workloads.Spec.name = "TinyLong";
    refs = 400;
    total_think_ms = 20_000.;
  }

let run_precopy ?(write_fraction = 0.3) ?(max_rounds = 5) () =
  Trial.run ~write_fraction ~spec
    ~strategy:(Strategy.pre_copy ~max_rounds ~threshold_pages:4 ())
    ()

let test_precopy_completes () =
  let result = run_precopy () in
  let r = result.Trial.report in
  Alcotest.(check bool) "completed" true (r.Report.completed_at <> None);
  Alcotest.(check bool) "rounds ran" true (r.Report.precopy_rounds >= 1);
  Alcotest.(check bool) "trace finished" true (Proc.is_done result.Trial.proc)

let test_precopy_ships_everything_physically () =
  let result = run_precopy () in
  let r = result.Trial.report in
  (* at least the whole RealMem crossed, plus re-sent dirty pages *)
  Alcotest.(check bool) "bytes >= real size" true
    (r.Report.precopy_bytes >= spec.Accent_workloads.Spec.real_bytes);
  Alcotest.(check int) "no demand fetches afterwards" 0
    r.Report.dest_faults_imag

let test_precopy_resends_dirty_pages () =
  let result = run_precopy ~write_fraction:0.5 () in
  let r = result.Trial.report in
  Alcotest.(check bool)
    (Printf.sprintf "dirty re-sends inflate traffic (%d > real %d)"
       r.Report.precopy_bytes spec.Accent_workloads.Spec.real_bytes)
    true
    (r.Report.precopy_bytes > spec.Accent_workloads.Spec.real_bytes)

let test_precopy_downtime_small () =
  let pre = run_precopy () in
  let copy =
    Trial.run ~write_fraction:0.3 ~spec ~strategy:Strategy.pure_copy ()
  in
  let down r = Report.downtime_seconds r.Trial.report in
  Alcotest.(check bool)
    (Printf.sprintf "pre-copy downtime (%.2fs) well under pure-copy's (%.2fs)"
       (down pre) (down copy))
    true
    (down pre *. 3. < down copy)

let test_precopy_data_integrity () =
  (* every page at the destination is either the generator pattern or that
     pattern with the store marker at byte 0 — and every page the process
     wrote before the freeze must carry the marker *)
  let result = run_precopy ~write_fraction:0.4 () in
  let proc = result.Trial.proc in
  let space = Proc.space_exn proc in
  let tag = Accent_workloads.Spec.content_tag spec in
  let checked = ref 0 in
  List.iter
    (fun (lo, hi) ->
      let first = Page.index_of_addr lo and last = Page.index_of_addr (hi - 1) in
      for idx = first to last do
        match Address_space.page_data space idx with
        | Some data ->
            incr checked;
            let expected = Page.pattern ~tag idx in
            let expected_written = Page.copy expected in
            Bytes.set expected_written 0 Proc.write_marker;
            if
              not
                (Bytes.equal data expected
                || Bytes.equal data expected_written
                || Page.is_zero data
                ||
                (* a zero page that was subsequently written *)
                let z = Page.zero () in
                Bytes.set z 0 Proc.write_marker;
                Bytes.equal data z)
            then Alcotest.failf "page %d corrupted by pre-copy" idx
        | None -> ()
      done)
    (Address_space.real_ranges space);
  Alcotest.(check bool) "checked some pages" true (!checked > 0);
  (* pages the process wrote at the destination (post-restart) or source
     must carry the marker *)
  let written_some = ref false in
  let trace = proc.Proc.trace in
  for i = 0 to Trace.length trace - 1 do
    if Trace.write_at trace i then
      match Address_space.page_data space (Trace.page_at trace i) with
      | Some data ->
          written_some := true;
          Alcotest.(check char) "store marker present" Proc.write_marker
            (Bytes.get data 0)
      | None -> ()
  done;
  Alcotest.(check bool) "some writes verified" true !written_some

let test_precopy_round_cap () =
  (* with a high store rate the dirty set never drains; the round cap must
     force the freeze *)
  let result = run_precopy ~write_fraction:0.9 ~max_rounds:3 () in
  let r = result.Trial.report in
  Alcotest.(check bool) "capped" true (r.Report.precopy_rounds <= 3);
  Alcotest.(check bool) "completed anyway" true
    (r.Report.completed_at <> None)

let test_precopy_vs_iou_bytes () =
  (* the paper's point: pre-copy minimises downtime but "both hosts still
     paid the transfer costs", while IOU cuts the bytes themselves *)
  let pre = run_precopy () in
  let iou =
    Trial.run ~write_fraction:0.3 ~spec ~strategy:(Strategy.pure_iou ()) ()
  in
  Alcotest.(check bool) "IOU moves far fewer bytes" true
    (Report.bytes_total iou.Trial.report * 2
    < Report.bytes_total pre.Trial.report)

(* --- regressions --------------------------------------------------------- *)

(* The final message's Rimas_delivered event must report the residual
   Data bytes it actually carries, not a hardcoded zero. *)
let test_final_reports_residual_bytes () =
  let events = ref [] in
  let result =
    Trial.run ~write_fraction:0.9 ~spec
      ~strategy:(Strategy.pre_copy ~max_rounds:3 ~threshold_pages:4 ())
      ~on_event:(fun ev -> events := ev :: !events)
      ()
  in
  let residual_bytes =
    List.filter_map
      (fun ev ->
        match ev.Mig_event.kind with
        | Mig_event.Rimas_delivered { data_bytes } -> Some data_bytes
        | _ -> None)
      !events
  in
  Alcotest.(check bool) "completed" true
    (result.Trial.report.Report.completed_at <> None);
  Alcotest.(check bool)
    "Rimas_delivered carries the residual's actual bytes" true
    (List.exists (fun b -> b > 0) residual_bytes)

(* Both push strategies share one wire protocol; each crafted-message
   test below runs once per strategy, named in the report it registers. *)
let push_strategies = [ Strategy.pre_copy (); Strategy.hybrid () ]

(* A transport give-up must clear the destination's staged pages (and the
   source's round state) — before the fix, entries were only removed on
   the final message and an abandoned migration leaked them forever. *)
let test_giveup_clears_staged () =
  List.iter
    (fun strategy ->
      let world = World.create ~n_hosts:2 () in
      let host0 = World.host world 0 in
      let manager1 = World.manager world 1 in
      let report = Report.create ~proc_name:"crafted" ~strategy in
      Mig_event.register
        (Migration_manager.bus manager1)
        ~proc_id:777 (Report.apply report);
      Accent_ipc.Kernel_ipc.send (Host.kernel host0)
        (Accent_ipc.Message.make ~ids:(Host.ids host0)
           ~dest:(Migration_manager.port manager1)
           ~inline_bytes:64
           ~memory:
             [
               {
                 Accent_ipc.Memory_object.range =
                   Accent_mem.Vaddr.range 0 Page.size;
                 content =
                   Accent_ipc.Memory_object.Data
                     (Page_run.singleton Page.zero_value);
               };
             ]
           (Transfer_engine.Mig_push_pages
              {
                proc_id = 777;
                round = 1;
                src_port = Migration_manager.port (World.manager world 0);
              }));
      ignore (World.run world);
      let name = Strategy.name strategy in
      Test_helpers.audit_names world "host 1 transfer.inbound = 1";
      Mig_event.publish
        (Migration_manager.bus manager1)
        {
          Mig_event.at = Accent_sim.Engine.now (Host.engine host0);
          proc_id = 777;
          kind = Mig_event.Transport_give_up;
        };
      World.audit world;
      Alcotest.(check bool)
        (name ^ ": give-up ended the migration")
        true
        (report.Report.outcome <> Report.Completed))
    push_strategies

(* A crafted final message whose pages were never staged must abort that
   one migration with an Engine_abort event — before the fix the manager
   died on the first page missing at insertion. *)
let test_missing_staged_pages_abort_not_crash () =
  List.iter
    (fun strategy ->
      let world = World.create ~n_hosts:2 () in
      let host0 = World.host world 0 in
      let bus = Migration_manager.bus (World.manager world 0) in
      let proc = Accent_workloads.Spec.build host0 Test_helpers.small_spec in
      let report = Report.create ~proc_name:"crafted" ~strategy in
      Mig_event.register bus ~proc_id:proc.Proc.id (Report.apply report);
      Excise.excise host0 proc ~k:(fun excised ->
          Accent_ipc.Kernel_ipc.send (Host.kernel host0)
            (Accent_ipc.Message.make ~ids:(Host.ids host0)
               ~dest:(Migration_manager.port (World.manager world 1))
               ~inline_bytes:128
               (Transfer_engine.Mig_push_final
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
      Alcotest.(check bool)
        (Strategy.name strategy ^ ": aborted, not crashed")
        true
        (report.Report.outcome = Report.Aborted))
    push_strategies

let test_writes_tracked_in_log () =
  let world, proc = Trial.build_only ~write_fraction:1.0 ~spec () in
  Proc_runner.start (World.host world 0) proc;
  ignore (World.run world);
  let written = Proc.drain_written_log proc in
  Alcotest.(check bool) "every touched page logged" true
    (List.length written > 0);
  Alcotest.(check (list int)) "drain empties the log" []
    (Proc.drain_written_log proc)

let suite =
  ( "precopy",
    [
      Alcotest.test_case "completes" `Quick test_precopy_completes;
      Alcotest.test_case "ships everything" `Quick
        test_precopy_ships_everything_physically;
      Alcotest.test_case "re-sends dirty pages" `Quick
        test_precopy_resends_dirty_pages;
      Alcotest.test_case "downtime small" `Quick test_precopy_downtime_small;
      Alcotest.test_case "data integrity with stores" `Quick
        test_precopy_data_integrity;
      Alcotest.test_case "round cap" `Quick test_precopy_round_cap;
      Alcotest.test_case "IOU still wins on bytes" `Quick
        test_precopy_vs_iou_bytes;
      Alcotest.test_case "write log" `Quick test_writes_tracked_in_log;
      Alcotest.test_case "final reports residual bytes" `Quick
        test_final_reports_residual_bytes;
      Alcotest.test_case "give-up clears staged store" `Quick
        test_giveup_clears_staged;
      Alcotest.test_case "missing staged pages abort, not crash" `Quick
        test_missing_staged_pages_abort_not_crash;
    ] )
