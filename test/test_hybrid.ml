(* The hybrid push/pull engine: working-set rounds pushed while the
   process runs, residual dirty pages shipped at freeze, and the cold
   tail left as IOUs against the manager's backing server.  Verifies the
   mechanism, data integrity down both the staged-push and the
   cold-IOU-pull paths, determinism, the headline inequalities against
   its two parents, and clean behaviour on a lossy wire. *)
open Accent_mem
open Accent_kernel
open Accent_core
open Accent_experiments

let spec =
  {
    Test_helpers.small_spec with
    Accent_workloads.Spec.name = "TinyLong";
    refs = 400;
    total_think_ms = 20_000.;
  }

let run_hybrid ?seed ?(write_fraction = 0.3) ?(migrate_after_ms = 0.)
    ?fault_plan () =
  Trial.run ?seed ~write_fraction ~migrate_after_ms ?fault_plan ~spec
    ~strategy:(Strategy.hybrid ~max_rounds:5 ~threshold_pages:4 ())
    ()

let test_hybrid_completes () =
  let result = run_hybrid () in
  let r = result.Trial.report in
  Alcotest.(check bool) "completed" true (r.Report.completed_at <> None);
  Alcotest.(check bool) "outcome completed" true
    (r.Report.outcome = Report.Completed);
  Alcotest.(check bool) "froze" true (r.Report.frozen_at <> None);
  Alcotest.(check bool) "trace finished" true (Proc.is_done result.Trial.proc)

let test_hybrid_leaves_no_engine_state () =
  World.audit (run_hybrid ()).Trial.world

let test_hybrid_deterministic () =
  let key (result : Trial.result) =
    let r = result.Trial.report in
    ( Report.end_to_end_seconds r,
      Report.bytes_total r,
      r.Report.precopy_bytes,
      r.Report.dest_faults_imag )
  in
  let a = run_hybrid ~seed:7L () and b = run_hybrid ~seed:7L () in
  Alcotest.(check bool) "same seed, same run" true (key a = key b)

(* Every page at the destination must be the generator pattern or that
   pattern with the store marker — whether it arrived via a push round,
   the freeze residual, or a network fault against the cold-tail IOUs
   (migrate_after 0 keeps the recency window almost empty, so nearly
   everything travels the IOU path). *)
let integrity_check result =
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
                let z = Page.zero () in
                Bytes.set z 0 Proc.write_marker;
                Bytes.equal data z)
            then Alcotest.failf "page %d corrupted by hybrid transfer" idx
        | None -> ()
      done)
    (Address_space.real_ranges space);
  Alcotest.(check bool) "checked some pages" true (!checked > 0)

let test_hybrid_data_integrity_cold_path () =
  let result = run_hybrid ~write_fraction:0.4 () in
  Alcotest.(check bool) "some pages were pulled" true
    (result.Trial.report.Report.dest_faults_imag > 0);
  integrity_check result

let test_hybrid_data_integrity_warm_push () =
  let result = run_hybrid ~write_fraction:0.4 ~migrate_after_ms:5_000. () in
  integrity_check result

(* The acceptance inequalities on the Lisp workload: the hybrid's freeze
   downtime must not exceed pure pre-copy's, and it must not pull more
   bytes than pure IOU. *)
let test_hybrid_beats_parents_on_lisp () =
  let spec =
    match Accent_workloads.Representative.by_name "Lisp-Del" with
    | Some s -> s
    | None -> Alcotest.fail "Lisp-Del spec missing"
  in
  let run strategy =
    (Trial.run ~write_fraction:0.1 ~migrate_after_ms:5_000. ~spec ~strategy ())
      .Trial.report
  in
  let hybrid = run (Strategy.hybrid ())
  and precopy = run (Strategy.pre_copy ())
  and iou = run (Strategy.pure_iou ()) in
  let pulled (r : Report.t) =
    Page.size * (r.Report.dest_faults_imag + r.Report.prefetch_extra)
  in
  Alcotest.(check bool)
    (Printf.sprintf "downtime %.2fs <= pre-copy's %.2fs"
       (Report.downtime_seconds hybrid)
       (Report.downtime_seconds precopy))
    true
    (Report.downtime_seconds hybrid <= Report.downtime_seconds precopy);
  Alcotest.(check bool)
    (Printf.sprintf "pulled %d B <= pure IOU's %d B" (pulled hybrid)
       (pulled iou))
    true
    (pulled hybrid <= pulled iou)

(* A lossy wire may degrade or abort the migration but must never escape
   as an exception. *)
let test_hybrid_lossy_no_crash () =
  let result =
    run_hybrid ~fault_plan:(Accent_net.Fault_plan.iid 0.05) ()
  in
  ignore result.Trial.report.Report.outcome;
  Alcotest.(check pass) "lossy hybrid run did not raise" () ()

let test_hybrid_lossy_deterministic () =
  let fault_plan = Accent_net.Fault_plan.iid 0.05 in
  let run () =
    let r = (run_hybrid ~seed:11L ~fault_plan ()).Trial.report in
    (Report.end_to_end_seconds r, Report.bytes_total r, r.Report.retransmits)
  in
  Alcotest.(check bool) "same seed, same lossy run" true (run () = run ())

let suite =
  ( "hybrid",
    [
      Alcotest.test_case "completes" `Quick test_hybrid_completes;
      Alcotest.test_case "no engine state left behind" `Quick
        test_hybrid_leaves_no_engine_state;
      Alcotest.test_case "deterministic" `Quick test_hybrid_deterministic;
      Alcotest.test_case "data integrity, cold pull path" `Quick
        test_hybrid_data_integrity_cold_path;
      Alcotest.test_case "data integrity, warm push path" `Quick
        test_hybrid_data_integrity_warm_push;
      Alcotest.test_case "downtime and pulled bytes vs parents" `Quick
        test_hybrid_beats_parents_on_lisp;
      Alcotest.test_case "lossy wire does not crash" `Quick
        test_hybrid_lossy_no_crash;
      Alcotest.test_case "lossy wire deterministic" `Quick
        test_hybrid_lossy_deterministic;
    ] )
