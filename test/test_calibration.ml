(* Calibration anchors: the handful of absolute numbers the paper states
   in prose, measured end-to-end on the simulated testbed.  These are the
   tests that keep the cost model honest when anyone touches a constant. *)
open Accent_kernel
open Accent_core

let within name ~lo ~hi x =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f in [%.2f, %.2f]" name x lo hi)
    true
    (x >= lo && x <= hi)

let test_local_disk_fault_40_8ms () =
  Alcotest.(check (float 1e-9)) "cost model constant"
    Accent_experiments.Paper.local_disk_fault_ms Cost_model.disk_fault_ms

let test_remote_fault_near_115ms () =
  (* measured through the full machinery: NMS cache at host 0 serving a
     process on host 1, one page per fault, averaged over many faults *)
  let result =
    Accent_experiments.Trial.run ~spec:Test_helpers.small_spec
      ~strategy:(Strategy.pure_iou ()) ()
  in
  let r = result.Accent_experiments.Trial.report in
  let exec_ms = 1000. *. Report.remote_execution_seconds r in
  let think =
    Accent_kernel.Trace.total_think_ms
      result.Accent_experiments.Trial.proc.Accent_kernel.Proc.trace
  in
  let zero = 2.0 *. float_of_int r.Report.dest_faults_zero in
  let per_fault =
    (exec_ms -. think -. zero) /. float_of_int r.Report.dest_faults_imag
  in
  within "remote imaginary fault (paper: 115 ms)" ~lo:100. ~hi:130. per_fault

let test_fault_cost_ratio_2_8x () =
  (* §4.3.3: remote imaginary access is ~2.8x a local disk fault *)
  let ratio =
    Accent_experiments.Paper.remote_fault_ms /. Cost_model.disk_fault_ms
  in
  within "remote/local fault ratio" ~lo:2.5 ~hi:3.1 ratio

let test_bulk_shipment_rate () =
  (* pure-copy of Minprog's 139 KB RealMem should sustain the ~14 KB/s the
     paper's Table 4-5 implies *)
  let result =
    Accent_experiments.Trial.run
      ~spec:Accent_workloads.Representative.minprog
      ~strategy:Strategy.pure_copy ()
  in
  let r = result.Accent_experiments.Trial.report in
  let rate_kb_s =
    float_of_int Accent_workloads.Representative.minprog.Accent_workloads.Spec.real_bytes
    /. 1024.
    /. Report.rimas_transfer_seconds r
  in
  within "pure-copy throughput (KB/s)" ~lo:11. ~hi:18. rate_kb_s

let test_minprog_excision_time () =
  (* Table 4-4: Minprog excises in 0.82 s *)
  let _, proc =
    Accent_experiments.Trial.build_only
      ~spec:Accent_workloads.Representative.minprog ()
  in
  let t = Excise.estimate_timings (Proc.space_exn proc) in
  within "Minprog overall excision (paper 0.82s)" ~lo:0.7 ~hi:0.95
    (t.Excise.overall_ms /. 1000.)

let test_lisp_excision_time () =
  let _, proc =
    Accent_experiments.Trial.build_only
      ~spec:Accent_workloads.Representative.lisp_del ()
  in
  let t = Excise.estimate_timings (Proc.space_exn proc) in
  within "Lisp-Del overall excision (paper 3.38s)" ~lo:2.6 ~hi:3.8
    (t.Excise.overall_ms /. 1000.)

let test_excision_varies_little () =
  (* §4.5: excision times vary only by ~4x while address spaces vary by
     four orders of magnitude *)
  let overall spec =
    let _, proc = Accent_experiments.Trial.build_only ~spec () in
    (Excise.estimate_timings (Proc.space_exn proc))
      .Excise.overall_ms
  in
  let all = List.map overall Accent_workloads.Representative.all in
  let ratio =
    List.fold_left Float.max 0. all /. List.fold_left Float.min infinity all
  in
  within "excision spread (paper ~4x)" ~lo:2. ~hi:6. ratio

let test_iou_transfer_flat () =
  (* Table 4-5: IOU transfer times are nearly constant (0.15-0.21 s)
     across four orders of magnitude of address-space size.  Checked here
     on the extremes to keep the test fast. *)
  let rimas spec =
    let result =
      Accent_experiments.Trial.run ~spec ~strategy:(Strategy.pure_iou ()) ()
    in
    Report.rimas_transfer_seconds result.Accent_experiments.Trial.report
  in
  let minprog = rimas Accent_workloads.Representative.minprog in
  let lisp = rimas Accent_workloads.Representative.lisp_t in
  within "Minprog IOU transfer" ~lo:0.08 ~hi:0.25 minprog;
  within "Lisp-T IOU transfer" ~lo:0.08 ~hi:0.3 lisp;
  within "spread" ~lo:0.5 ~hi:3. (lisp /. minprog)

let test_lisp_copy_vs_iou_ratio () =
  (* the headline: Lisp-class processes relocate ~1000x faster *)
  let run strategy =
    let result =
      Accent_experiments.Trial.run
        ~spec:Accent_workloads.Representative.lisp_t ~strategy ()
    in
    Report.rimas_transfer_seconds result.Accent_experiments.Trial.report
  in
  let ratio = run Strategy.pure_copy /. run (Strategy.pure_iou ()) in
  within "copy/IOU ratio for Lisp (paper ~1000x)" ~lo:500. ~hi:1500. ratio

let suite =
  ( "calibration",
    [
      Alcotest.test_case "disk fault 40.8ms" `Quick test_local_disk_fault_40_8ms;
      Alcotest.test_case "remote fault ~115ms" `Quick
        test_remote_fault_near_115ms;
      Alcotest.test_case "fault ratio ~2.8x" `Quick test_fault_cost_ratio_2_8x;
      Alcotest.test_case "bulk rate ~14KB/s" `Quick test_bulk_shipment_rate;
      Alcotest.test_case "Minprog excision 0.82s" `Quick
        test_minprog_excision_time;
      Alcotest.test_case "Lisp-Del excision 3.38s" `Quick
        test_lisp_excision_time;
      Alcotest.test_case "excision varies ~4x" `Quick test_excision_varies_little;
      Alcotest.test_case "IOU transfer flat" `Slow test_iou_transfer_flat;
      Alcotest.test_case "Lisp ~1000x ratio" `Slow test_lisp_copy_vs_iou_ratio;
    ] )
