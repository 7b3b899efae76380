(* The migration facility end to end: ExciseProcess/InsertProcess
   roundtrips with bit-exact address-space reconstruction, the three
   transfer strategies, report consistency, segment death, and
   re-migration. *)
open Accent_sim
open Accent_mem
open Accent_kernel
open Accent_core

let spec = Test_helpers.small_spec

(* Snapshot every materialised page's checksum plus zero/imag structure. *)
let space_fingerprint space =
  let pages = Hashtbl.create 64 in
  List.iter
    (fun (lo, hi) ->
      let first = Page.index_of_addr lo and last = Page.index_of_addr (hi - 1) in
      for idx = first to last do
        match Address_space.page_data space idx with
        | Some data -> Hashtbl.replace pages idx (Page.checksum data)
        | None -> Alcotest.fail "real page missing"
      done)
    (Address_space.real_ranges space);
  ( pages,
    Address_space.real_bytes space,
    Address_space.zero_bytes space,
    Address_space.total_bytes space )

let check_fingerprint_preserved (pages, real, zero, total) space' =
  Alcotest.(check int) "real bytes preserved" real
    (Address_space.real_bytes space');
  Alcotest.(check int) "zero bytes preserved" zero
    (Address_space.zero_bytes space');
  Alcotest.(check int) "total preserved" total
    (Address_space.total_bytes space');
  Hashtbl.iter
    (fun idx checksum ->
      match Address_space.page_data space' idx with
      | Some data ->
          if Page.checksum data <> checksum then
            Alcotest.failf "page %d corrupted in flight" idx
      | None -> Alcotest.failf "page %d lost in flight" idx)
    pages

(* --- Excise --- *)

let test_excise_produces_context () =
  let world, proc = Accent_experiments.Trial.build_only ~spec () in
  let fp = space_fingerprint (Proc.space_exn proc) in
  let _, real, _, _ = fp in
  let result = ref None in
  Excise.excise (World.host world 0) proc ~k:(fun e -> result := Some e);
  ignore (World.run world);
  let e = Option.get !result in
  Alcotest.(check int) "RIMAS carries all real data" real
    (Accent_ipc.Memory_object.data_bytes e.Excise.rimas);
  Alcotest.(check int) "resident list matches spec"
    (Accent_workloads.Spec.rs_pages spec)
    (List.length e.Excise.resident);
  Alcotest.(check bool) "process dissolved" true (proc.Proc.space = None);
  Alcotest.(check bool) "status Excised" true
    (proc.Proc.pcb.Pcb.status = Pcb.Excised);
  Alcotest.(check int) "gone from host" 0 (Host.proc_count (World.host world 0));
  Alcotest.(check bool) "timing charged" true
    (Time.to_ms (World.now world) >= e.Excise.timings.Excise.overall_ms);
  (* the collapse merged everything physical into one contiguous chunk *)
  Alcotest.(check int) "single collapsed Data chunk" 1
    (Accent_ipc.Memory_object.chunk_count e.Excise.rimas)

let test_excise_timing_model_monotone () =
  (* more resident pages -> more RIMAS time; more materialised pages and
     segments -> more AMap time *)
  let world, proc = Accent_experiments.Trial.build_only ~spec () in
  ignore world;
  let space = Proc.space_exn proc in
  let t = Excise.estimate_timings space in
  Alcotest.(check bool) "positive parts" true
    (t.Excise.amap_ms > 0. && t.Excise.rimas_ms > 0.);
  Alcotest.(check bool) "overall includes parts" true
    (t.Excise.overall_ms >= t.Excise.amap_ms +. t.Excise.rimas_ms)

(* --- Excise + Insert roundtrip (no network) --- *)

let test_excise_insert_roundtrip () =
  let world, proc = Accent_experiments.Trial.build_only ~spec () in
  let fp = space_fingerprint (Proc.space_exn proc) in
  let original_ports = proc.Proc.ports in
  let original_pc = proc.Proc.pcb.Pcb.pc in
  let reborn = ref None in
  Excise.excise (World.host world 0) proc ~k:(fun e ->
      Insert.insert (World.host world 1) ~core:e.Excise.core
        ~rimas:e.Excise.rimas ~k:(fun p -> reborn := Some p));
  ignore (World.run world);
  let p = Option.get !reborn in
  Alcotest.(check int) "same process id" proc.Proc.id p.Proc.id;
  Alcotest.(check bool) "same PCB object travels" true (p.Proc.pcb == proc.Proc.pcb);
  Alcotest.(check int) "program counter preserved" original_pc
    p.Proc.pcb.Pcb.pc;
  Alcotest.(check bool) "port rights passed" true
    (original_ports = p.Proc.ports);
  List.iter
    (fun port ->
      Alcotest.(check (option int)) "rights re-homed" (Some 1)
        (Accent_net.Net_registry.port_home
           (Host.registry (World.host world 1))
           port))
    p.Proc.ports;
  check_fingerprint_preserved fp (Proc.space_exn p);
  Alcotest.(check int) "registered at destination" 1
    (Host.proc_count (World.host world 1))

(* --- Full migrations --- *)

let migrate strategy =
  Accent_experiments.Trial.run ~spec ~strategy ()

let check_report_sane (r : Report.t) =
  let times =
    [
      r.Report.requested_at;
      r.Report.excised_at;
      r.Report.rimas_delivered_at;
      r.Report.inserted_at;
      r.Report.restarted_at;
      r.Report.completed_at;
    ]
  in
  List.iter
    (fun t -> Alcotest.(check bool) "timestamp present" true (t <> None))
    times;
  let rec monotone = function
    | Some a :: (Some b :: _ as rest) ->
        Alcotest.(check bool) "phases in order" true (a <= b);
        monotone rest
    | _ :: rest -> monotone rest
    | [] -> ()
  in
  monotone times

let test_pure_copy_migration () =
  let result = migrate Strategy.pure_copy in
  let r = result.Accent_experiments.Trial.report in
  check_report_sane r;
  Alcotest.(check int) "no imaginary faults under copy" 0
    r.Report.dest_faults_imag;
  Alcotest.(check bool) "all real data crossed the wire" true
    (r.Report.bytes_bulk >= spec.Accent_workloads.Spec.real_bytes);
  (* the relocated process finished its whole trace *)
  Alcotest.(check bool) "trace finished" true
    (Proc.is_done result.Accent_experiments.Trial.proc)

let test_pure_iou_migration () =
  let result = migrate (Strategy.pure_iou ()) in
  let r = result.Accent_experiments.Trial.report in
  check_report_sane r;
  Alcotest.(check int) "exactly one fault per touched page"
    spec.Accent_workloads.Spec.touched_real_pages r.Report.dest_faults_imag;
  Alcotest.(check bool) "bulk bytes tiny" true (r.Report.bytes_bulk < 2048);
  Alcotest.(check bool) "fault traffic present" true (r.Report.bytes_fault > 0);
  (* data integrity: every touched page carries its generator pattern *)
  let tag = Accent_workloads.Spec.content_tag spec in
  let space = Proc.space_exn result.Accent_experiments.Trial.proc in
  let ok = ref 0 in
  List.iter
    (fun (lo, hi) ->
      let first = Page.index_of_addr lo and last = Page.index_of_addr (hi - 1) in
      for idx = first to last do
        match Address_space.page_data space idx with
        | Some data when Bytes.equal data (Page.pattern ~tag idx) -> incr ok
        | Some data when Page.is_zero data -> incr ok (* touched zero page *)
        | Some _ -> Alcotest.failf "page %d corrupted" idx
        | None -> ()
      done)
    (Address_space.real_ranges space);
  Alcotest.(check bool) "pages verified" true (!ok > 0)

let test_resident_set_migration () =
  let result = migrate (Strategy.resident_set ()) in
  let r = result.Accent_experiments.Trial.report in
  check_report_sane r;
  (* resident pages came along; faults only for touched-outside-RS *)
  let expected_faults =
    spec.Accent_workloads.Spec.touched_real_pages
    - spec.Accent_workloads.Spec.rs_touched_overlap
  in
  Alcotest.(check int) "faults = touched - overlap" expected_faults
    r.Report.dest_faults_imag;
  Alcotest.(check bool) "bulk carries the resident set" true
    (r.Report.bytes_bulk >= spec.Accent_workloads.Spec.rs_bytes)

let test_iou_faster_transfer_slower_execution () =
  let copy = migrate Strategy.pure_copy in
  let iou = migrate (Strategy.pure_iou ()) in
  let rt r = Report.rimas_transfer_seconds r.Accent_experiments.Trial.report in
  let ex r =
    Report.remote_execution_seconds r.Accent_experiments.Trial.report
  in
  Alcotest.(check bool) "IOU transfer much faster" true
    (rt iou *. 10. < rt copy);
  Alcotest.(check bool) "IOU execution slower" true (ex iou > ex copy)

let test_death_notices_after_completion () =
  let result = migrate (Strategy.pure_iou ()) in
  (* the source NMS cached the RIMAS; after remote completion its segment
     must have been retired by a death notice *)
  let nms0 = Host.nms (World.host result.Accent_experiments.Trial.world 0) in
  Alcotest.(check int) "cache retired" 0
    (Accent_net.Netmsgserver.segments_backed nms0)

let test_prefetch_reduces_faults () =
  let pf0 = migrate (Strategy.pure_iou ()) in
  let pf3 = migrate (Strategy.pure_iou ~prefetch:3 ()) in
  let faults r =
    r.Accent_experiments.Trial.report.Report.dest_faults_imag
  in
  Alcotest.(check bool) "prefetch cuts fault count" true
    (faults pf3 < faults pf0);
  Alcotest.(check bool) "hits recorded" true
    (pf3.Accent_experiments.Trial.report.Report.prefetch_hits > 0)

let test_migration_is_deterministic () =
  let a = migrate (Strategy.pure_iou ~prefetch:1 ()) in
  let b = migrate (Strategy.pure_iou ~prefetch:1 ()) in
  let key r =
    ( Report.end_to_end_seconds r.Accent_experiments.Trial.report,
      r.Accent_experiments.Trial.report.Report.bytes_fault,
      r.Accent_experiments.Trial.report.Report.dest_faults_imag )
  in
  Alcotest.(check (triple (float 1e-12) int int))
    "identical runs" (key a) (key b)

let test_second_migration () =
  (* migrate 0 -> 1 under IOU, interrupt the relocated process mid-run
     (so part of its space is real again and part still imaginary), then
     bounce it back to host 0: surviving IOUs must keep pointing at the
     original backer and execution must finish correctly. *)
  let world, proc = Accent_experiments.Trial.build_only ~spec () in
  let report1 =
    Migration_manager.migrate (World.manager world 0) ~proc
      ~dest:(Migration_manager.port (World.manager world 1))
      ~strategy:(Strategy.pure_iou ()) ()
  in
  ignore (World.run ~limit:(Time.ms 1500.) world);
  let proc1 = Option.get (Host.find_proc (World.host world 1) proc.Proc.id) in
  Alcotest.(check bool) "mid-execution" true
    (report1.Report.restarted_at <> None
    && report1.Report.completed_at = None);
  Proc_runner.interrupt proc1;
  ignore (World.run world) (* drain the in-flight step *);
  Alcotest.(check bool) "part imaginary, part real" true
    (Address_space.imag_bytes (Proc.space_exn proc1) > 0
    && Address_space.pages_materialized (Proc.space_exn proc1) > 0);
  let report2 =
    Migration_manager.migrate (World.manager world 1) ~proc:proc1
      ~dest:(Migration_manager.port (World.manager world 0))
      ~strategy:(Strategy.pure_iou ()) ()
  in
  ignore (World.run world);
  Alcotest.(check bool) "second hop completed" true
    (report2.Report.completed_at <> None);
  Alcotest.(check int) "two migrations on the PCB" 2
    proc1.Proc.pcb.Pcb.migrations;
  let proc2 = Option.get (Host.find_proc (World.host world 0) proc.Proc.id) in
  Alcotest.(check bool) "trace finished after two hops" true
    (Proc.is_done proc2);
  (* all data it ever touched is still pattern-correct *)
  let tag = Accent_workloads.Spec.content_tag spec in
  let space = Proc.space_exn proc2 in
  List.iter
    (fun (lo, hi) ->
      let first = Page.index_of_addr lo and last = Page.index_of_addr (hi - 1) in
      for idx = first to last do
        match Address_space.page_data space idx with
        | Some data ->
            if
              not
                (Bytes.equal data (Page.pattern ~tag idx) || Page.is_zero data)
            then Alcotest.failf "page %d corrupted after two hops" idx
        | None -> ()
      done)
    (Address_space.real_ranges space)

let test_monitor_consistency () =
  let result = migrate (Strategy.pure_iou ()) in
  let w = result.Accent_experiments.Trial.world in
  let r = result.Accent_experiments.Trial.report in
  (* the report's byte totals are exactly what the monitor recorded, which
     is exactly what the link carried *)
  Alcotest.(check int) "report matches link accounting"
    (Accent_net.Link.bytes_sent w.World.link)
    (Report.bytes_total r)

(* A trace step still queued on the source's exec CPU when excision
   runs outlives the source incarnation, and the destination restart
   flips the shared PCB back to Running before it fires.  The
   incarnation guard must keep it off the excised source: no
   exception, and the source pager counts no fault for it. *)
let test_stale_step_after_excision strategy () =
  let spec = { spec with Accent_workloads.Spec.total_think_ms = 600_000. } in
  let world, proc = Accent_experiments.Trial.build_only ~spec () in
  let src = World.host world 0 in
  let blocker_ms = 30_000. in
  let stale_fired_at = ref None in
  Queue_server.submit (Host.exec_cpu src) ~service_time:(Time.ms blocker_ms)
    (fun () -> stale_fired_at := Some (World.now world));
  Proc_runner.start src proc;
  let pager = Host.pager src in
  let faults () =
    (Pager.faults_zero pager, Pager.faults_disk pager, Pager.faults_imag pager)
  in
  let before = faults () in
  let report =
    Migration_manager.migrate (World.manager world 0) ~proc
      ~dest:(Migration_manager.port (World.manager world 1))
      ~strategy ()
  in
  ignore (World.run world);
  let at = function Some t -> t | None -> Alcotest.fail "missing time" in
  let restarted = at report.Report.restarted_at
  and completed = at report.Report.completed_at
  and stale = at !stale_fired_at in
  Alcotest.(check bool)
    "the stale step fires while the destination incarnation runs" true
    (restarted < stale && stale < completed);
  Alcotest.(check bool) "source incarnation excised" true
    (proc.Proc.space = None);
  Alcotest.(check (triple int int int)) "source fault counters unchanged"
    before (faults ())

let suite =
  ( "migration",
    [
      Alcotest.test_case "excise produces context" `Quick
        test_excise_produces_context;
      Alcotest.test_case "excise timing model" `Quick
        test_excise_timing_model_monotone;
      Alcotest.test_case "excise/insert roundtrip" `Quick
        test_excise_insert_roundtrip;
      Alcotest.test_case "pure-copy migration" `Quick test_pure_copy_migration;
      Alcotest.test_case "pure-IOU migration" `Quick test_pure_iou_migration;
      Alcotest.test_case "resident-set migration" `Quick
        test_resident_set_migration;
      Alcotest.test_case "IOU tradeoff" `Quick
        test_iou_faster_transfer_slower_execution;
      Alcotest.test_case "death notices" `Quick
        test_death_notices_after_completion;
      Alcotest.test_case "prefetch reduces faults" `Quick
        test_prefetch_reduces_faults;
      Alcotest.test_case "deterministic" `Quick test_migration_is_deterministic;
      Alcotest.test_case "second migration" `Quick test_second_migration;
      Alcotest.test_case "monitor consistency" `Quick test_monitor_consistency;
      Alcotest.test_case "stale step after excision under copy" `Quick
        (test_stale_step_after_excision Strategy.pure_copy);
      Alcotest.test_case "stale step after excision under hybrid" `Quick
        (test_stale_step_after_excision (Strategy.hybrid ()));
    ] )
