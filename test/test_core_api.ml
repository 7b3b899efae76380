(* Core-library plumbing: strategy naming, context coordinate translation,
   report derivations, world composition, and the working-set strategy. *)
open Accent_kernel
open Accent_core
module Ablations = Accent_experiments.Ablations

(* --- Strategy --- *)

let test_strategy_names () =
  Alcotest.(check string) "copy" "copy" (Strategy.name Strategy.pure_copy);
  Alcotest.(check string) "iou pf0" "iou" (Strategy.name (Strategy.pure_iou ()));
  Alcotest.(check string) "iou pf3" "iou+pf3"
    (Strategy.name (Strategy.pure_iou ~prefetch:3 ()));
  Alcotest.(check string) "rs" "rs" (Strategy.name (Strategy.resident_set ()));
  Alcotest.(check string) "ws" "ws+pf1"
    (Strategy.name (Strategy.working_set ~prefetch:1 ()));
  Alcotest.(check string) "precopy" "precopy"
    (Strategy.name (Strategy.pre_copy ()));
  Alcotest.(check int) "paper sweep" 5
    (List.length Strategy.paper_prefetch_values)

(* --- Context layout translation --- *)

let runs =
  [
    { Context.vaddr_lo = 1000; vaddr_hi = 3000; collapsed_lo = 0 };
    { Context.vaddr_lo = 10_000; vaddr_hi = 11_000; collapsed_lo = 2000 };
  ]

let test_collapsed_of_vaddr () =
  Alcotest.(check (option int)) "first run start" (Some 0)
    (Context.collapsed_of_vaddr runs 1000);
  Alcotest.(check (option int)) "first run middle" (Some 500)
    (Context.collapsed_of_vaddr runs 1500);
  Alcotest.(check (option int)) "second run" (Some 2400)
    (Context.collapsed_of_vaddr runs 10_400);
  Alcotest.(check (option int)) "gap" None
    (Context.collapsed_of_vaddr runs 5000)

let test_vaddr_of_collapsed_roundtrip () =
  List.iter
    (fun vaddr ->
      match Context.collapsed_of_vaddr runs vaddr with
      | Some c ->
          Alcotest.(check (option int)) "roundtrip" (Some vaddr)
            (Context.vaddr_of_collapsed runs c)
      | None -> Alcotest.fail "expected a mapping")
    [ 1000; 1999; 2500; 10_000; 10_999 ];
  Alcotest.(check (option int)) "beyond content" None
    (Context.vaddr_of_collapsed runs 3000)

(* --- Report derivations --- *)

let test_report_spans () =
  let r =
    Report.create ~proc_name:"p" ~strategy:Strategy.pure_copy
  in
  let stamp at kind = Report.apply r { Mig_event.at; proc_id = 1; kind } in
  stamp 0.
    (Mig_event.Requested { proc_name = "p"; strategy = Strategy.pure_copy });
  stamp 1000.
    (Mig_event.Excised { Excise.amap_ms = 0.; rimas_ms = 0.; overall_ms = 0. });
  stamp 2000. (Mig_event.Rimas_delivered { data_bytes = 0 });
  stamp 3000. Mig_event.Core_delivered;
  stamp 3500. (Mig_event.Inserted { insert_ms = 0. });
  stamp 3600. Mig_event.Restarted;
  stamp 8600.
    (Mig_event.Outcome { outcome = Report.Completed; remote_touched_pages = 0 });
  Alcotest.(check (float 1e-9)) "excise" 1. (Report.excise_seconds r);
  Alcotest.(check (float 1e-9)) "rimas from excise" 1.
    (Report.rimas_transfer_seconds r);
  Alcotest.(check (float 1e-9)) "transfer is the later of the two" 2.
    (Report.transfer_seconds r);
  Alcotest.(check (float 1e-9)) "remote exec" 5.
    (Report.remote_execution_seconds r);
  Alcotest.(check (float 1e-9)) "end to end" 8.6 (Report.end_to_end_seconds r);
  Alcotest.(check (float 1e-9)) "downtime without freeze = from request" 3.6
    (Report.downtime_seconds r);
  stamp 3000. (Mig_event.Frozen { residual_bytes = 0 });
  Alcotest.(check (float 1e-9)) "downtime with freeze" 0.6
    (Report.downtime_seconds r)

let test_report_missing_stamps () =
  let r = Report.create ~proc_name:"p" ~strategy:Strategy.pure_copy in
  Alcotest.(check (float 1e-9)) "no crash on missing stamps" 0.
    (Report.end_to_end_seconds r);
  Alcotest.(check (option Alcotest.reject)) "no hit ratio" None
    (Option.map ignore (Report.prefetch_hit_ratio r))

(* --- World --- *)

let test_world_composition () =
  let world = World.create ~n_hosts:3 () in
  Alcotest.(check int) "hosts" 3 (Array.length world.World.hosts);
  Alcotest.(check int) "managers" 3 (Array.length world.World.managers);
  List.iteri
    (fun i host ->
      Alcotest.(check int) "ids in order" i (Host.id host);
      Alcotest.(check string) "names" (Printf.sprintf "host%d" i)
        (Host.name host))
    (Array.to_list world.World.hosts);
  (* manager ports are mutually routable *)
  Array.iteri
    (fun i mm ->
      Alcotest.(check (option int)) "manager port homed" (Some i)
        (Accent_net.Net_registry.port_home world.World.registry
           (Migration_manager.port mm)))
    world.World.managers

let test_world_determinism () =
  let run () =
    let result =
      Accent_experiments.Trial.run ~spec:Test_helpers.small_spec
        ~strategy:(Strategy.pure_iou ()) ()
    in
    Report.end_to_end_seconds result.Accent_experiments.Trial.report
  in
  Alcotest.(check (float 1e-12)) "worlds are reproducible" (run ()) (run ())

(* --- Working_set strategy --- *)

let ws_spec =
  {
    Test_helpers.small_spec with
    Accent_workloads.Spec.name = "WsTest";
    refs = 300;
    total_think_ms = 20_000.;
  }

let test_working_set_strategy_runs () =
  let result =
    Accent_experiments.Trial.run ~spec:ws_spec
      ~strategy:(Strategy.working_set ~window_ms:4_000. ())
      ~migrate_after_ms:6_000. ()
  in
  let r = result.Accent_experiments.Trial.report in
  Alcotest.(check bool) "completed" true (r.Report.completed_at <> None);
  (* something was shipped physically (the recent working set) and some
     demand faults remained *)
  let fetched =
    Accent_mem.Page.size
    * (r.Report.dest_faults_imag + r.Report.prefetch_extra)
  in
  let shipped = r.Report.remote_real_bytes_fetched - fetched in
  Alcotest.(check bool) "shipped a working set" true (shipped > 0);
  Alcotest.(check bool) "still lazy for the rest" true
    (r.Report.dest_faults_imag > 0)

let test_working_set_ships_less_than_rs () =
  let run strategy =
    let result =
      Accent_experiments.Trial.run ~spec:ws_spec ~strategy
        ~migrate_after_ms:6_000. ()
    in
    let r = result.Accent_experiments.Trial.report in
    r.Report.remote_real_bytes_fetched
    - Accent_mem.Page.size
      * (r.Report.dest_faults_imag + r.Report.prefetch_extra)
  in
  let ws = run (Strategy.working_set ~window_ms:2_000. ()) in
  let rs = run (Strategy.resident_set ()) in
  Alcotest.(check bool)
    (Printf.sprintf "ws ships less than rs (%d < %d)" ws rs)
    true (ws < rs)

let test_cold_working_set_degenerates_to_iou () =
  (* migrated at t=0 the process never ran: empty working set, all IOU *)
  let result =
    Accent_experiments.Trial.run ~spec:Test_helpers.small_spec
      ~strategy:(Strategy.working_set ()) ()
  in
  let r = result.Accent_experiments.Trial.report in
  Alcotest.(check int) "every touched page faulted"
    Test_helpers.small_spec.Accent_workloads.Spec.touched_real_pages
    r.Report.dest_faults_imag

let test_ws_vs_rs_ablation () =
  let t = Ablations.ws_vs_rs ~spec:ws_spec ~migrate_after_ms:6_000. () in
  let module R = Accent_experiments.Result_table in
  Alcotest.(check int) "four rows" 4 (List.length (R.rows t));
  let shipped strategy =
    (R.find t ~row:[ strategy ] ~column:"shipped_bytes").R.measured
  in
  Alcotest.(check bool) "rs ships the most" true
    (List.for_all
       (fun b -> b <= shipped "rs")
       (Test_helpers.column t "shipped_bytes"));
  Alcotest.(check (float 0.)) "iou ships nothing" 0. (shipped "iou")

let suite =
  ( "core_api",
    [
      Alcotest.test_case "strategy names" `Quick test_strategy_names;
      Alcotest.test_case "collapsed_of_vaddr" `Quick test_collapsed_of_vaddr;
      Alcotest.test_case "vaddr_of_collapsed roundtrip" `Quick
        test_vaddr_of_collapsed_roundtrip;
      Alcotest.test_case "report spans" `Quick test_report_spans;
      Alcotest.test_case "report missing stamps" `Quick
        test_report_missing_stamps;
      Alcotest.test_case "world composition" `Quick test_world_composition;
      Alcotest.test_case "world determinism" `Quick test_world_determinism;
      Alcotest.test_case "working-set strategy" `Quick
        test_working_set_strategy_runs;
      Alcotest.test_case "ws ships less than rs" `Quick
        test_working_set_ships_less_than_rs;
      Alcotest.test_case "cold ws degenerates to iou" `Quick
        test_cold_working_set_degenerates_to_iou;
      Alcotest.test_case "ws_vs_rs ablation" `Quick test_ws_vs_rs_ablation;
    ] )

(* --- adaptive prefetch --- *)

let test_adaptive_prefetch_converges_up_and_down () =
  let run spec =
    let world = World.create ~n_hosts:2 () in
    let proc = Accent_workloads.Spec.build (World.host world 0) spec in
    let controller = ref None in
    ignore
      (Migration_manager.migrate (World.manager world 0) ~proc
         ~dest:(Migration_manager.port (World.manager world 1))
         ~strategy:(Strategy.pure_iou ~prefetch:1 ())
         ~on_restart:(fun p ->
           controller :=
             Some (Adaptive_prefetch.attach world.World.engine p))
         ());
    ignore (World.run world);
    let c = Option.get !controller in
    match List.rev (Adaptive_prefetch.trajectory c) with
    | (_, pf) :: _ -> (pf, Adaptive_prefetch.adjustments c)
    | [] -> Alcotest.fail "controller never sampled"
  in
  (* a long, strictly sequential program: prefetch should climb *)
  let sequential =
    {
      Test_helpers.small_spec with
      Accent_workloads.Spec.name = "SeqAda";
      real_bytes = 400 * 512;
      total_bytes = 600 * 512;
      rs_bytes = 20 * 512;
      touched_real_pages = 350;
      rs_touched_overlap = 18;
      refs = 400;
      total_think_ms = 2_000.;
      pattern =
        Accent_workloads.Access_pattern.Sequential
          { streams = 1; revisit = 0.; run = 64 };
    }
  in
  let pf_seq, adj_seq = run sequential in
  Alcotest.(check bool)
    (Printf.sprintf "sequential climbs (settled pf%d)" pf_seq)
    true (pf_seq >= 7);
  Alcotest.(check bool) "it actually adapted" true (adj_seq > 0);
  (* a scattered program: prefetch should stay low *)
  (* scattered AND sparse: only 20% of the pages are ever wanted, so the
     contiguous pages a prefetch drags in are mostly dead weight *)
  let scattered =
    {
      sequential with
      Accent_workloads.Spec.name = "RndAda";
      touched_real_pages = 80;
      rs_touched_overlap = 4;
      pattern = Accent_workloads.Access_pattern.Clustered_random { cluster = 1.2 };
    }
  in
  let pf_rnd, _ = run scattered in
  Alcotest.(check bool)
    (Printf.sprintf "scattered stays low (settled pf%d)" pf_rnd)
    true (pf_rnd <= 3)

let adaptive_cases =
  [
    Alcotest.test_case "adaptive prefetch converges" `Quick
      test_adaptive_prefetch_converges_up_and_down;
  ]

let suite = (fst suite, snd suite @ adaptive_cases)
