(* Pretty-printers and small error paths that the larger suites don't
   exercise: every [pp] must produce something human-shaped, and the
   defensive failure modes must fire. *)
open Accent_mem
open Accent_ipc

let contains = Test_helpers.contains

let test_time_pp () =
  Alcotest.(check string) "seconds rendering" "0.115s"
    (Format.asprintf "%a" Accent_sim.Time.pp 115.)

let test_vaddr_pp () =
  let s = Format.asprintf "%a" Vaddr.pp (Vaddr.range 0 512) in
  Alcotest.(check bool) "hex range" true (contains s "0x")

let test_accessibility_pp () =
  List.iter
    (fun (cls, name) ->
      Alcotest.(check string) "name" name (Accessibility.to_string cls))
    [
      (Accessibility.Real_zero_mem, "RealZeroMem");
      (Accessibility.Real_mem, "RealMem");
      (Accessibility.Imag_mem, "ImagMem");
      (Accessibility.Bad_mem, "BadMem");
    ]

let test_amap_pp () =
  let amap =
    Amap.of_ranges
      [ (0, 1024, Accessibility.Real_mem); (1024, 2048, Accessibility.Real_zero_mem) ]
  in
  let s = Format.asprintf "%a" Amap.pp amap in
  Alcotest.(check bool) "mentions both classes" true
    (contains s "RealMem" && contains s "RealZeroMem")

let test_port_pp () =
  let ids = Accent_sim.Ids.create () in
  let s = Format.asprintf "%a" Port.pp (Port.fresh ids) in
  Alcotest.(check string) "port format" "port#1" s

let test_message_pp () =
  let ids = Accent_sim.Ids.create () in
  let msg =
    Message.make ~ids ~dest:(Port.fresh ids) ~no_ious:true (Message.Ping 0)
  in
  let s = Format.asprintf "%a" Message.pp msg in
  Alcotest.(check bool) "mentions NoIOUs" true (contains s "NoIOUs")

let test_report_pp () =
  let r =
    Accent_core.Report.create ~proc_name:"demo"
      ~strategy:(Accent_core.Strategy.pure_iou ~prefetch:3 ())
  in
  let s = Format.asprintf "%a" Accent_core.Report.pp_summary r in
  Alcotest.(check bool) "names the process and strategy" true
    (contains s "demo" && contains s "iou+pf3")

let test_stats_pp () =
  let st = Accent_util.Stats.create () in
  Accent_util.Stats.add st 1.;
  let s = Format.asprintf "%a" Accent_util.Stats.pp st in
  Alcotest.(check bool) "mentions n=" true (contains s "n=1")

(* --- defensive failure modes --- *)

let test_phys_mem_full_without_handler () =
  let mem = Phys_mem.create ~frames:1 in
  ignore
    (Phys_mem.allocate mem
       ~space_id:1 ~page:0
       Page.zero_value);
  Alcotest.check_raises "no evict handler"
    (Failure "Phys_mem: pool full and no evict handler set") (fun () ->
      ignore
        (Phys_mem.allocate mem
           ~space_id:1 ~page:1
           Page.zero_value))

let test_kernel_cost_threshold_boundary () =
  let ids = Accent_sim.Ids.create () in
  let dest = Port.fresh ids in
  let at_threshold =
    Message.make ~ids ~dest
      ~inline_bytes:(Kernel_ipc.copy_threshold - Message.header_bytes)
      (Message.Ping 0)
  in
  let above =
    Message.make ~ids ~dest
      ~inline_bytes:
        (Kernel_ipc.copy_threshold - Message.header_bytes + 1)
      (Message.Ping 0)
  in
  let c_at = Kernel_ipc.handling_cost at_threshold in
  let c_above = Kernel_ipc.handling_cost above in
  (* at the boundary we pay the double copy; one byte above switches to the
     much cheaper map path *)
  Alcotest.(check bool) "copy at threshold costs more than map above" true
    (Accent_sim.Time.to_ms c_at > Accent_sim.Time.to_ms c_above)

let test_world_migrate_failure_raises () =
  (* kill the backer mid-migration: migrate_and_run must refuse to call a
     failed trial completed *)
  let costs =
    {
      Accent_kernel.Cost_model.default with
      Accent_kernel.Cost_model.fault_timeout_ms = 1_000.;
    }
  in
  let world = Accent_core.World.create ~costs ~n_hosts:2 () in
  let proc =
    Accent_workloads.Spec.build
      (Accent_core.World.host world 0)
      Test_helpers.small_spec
  in
  ignore
    (Accent_sim.Engine.schedule world.Accent_core.World.engine
       ~delay:(Accent_sim.Time.ms 1_500.) (fun () ->
         Accent_net.Netmsgserver.fail_backing
           (Accent_kernel.Host.nms (Accent_core.World.host world 0))));
  match
    Accent_core.World.migrate_and_run world ~proc ~src:0 ~dst:1
      ~strategy:(Accent_core.Strategy.pure_iou ())
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Alcotest.(check bool) ("diagnostic is informative: " ^ msg) true
        (contains msg "never completed" || contains msg "Tiny")

let suite =
  ( "printers_and_errors",
    [
      Alcotest.test_case "time pp" `Quick test_time_pp;
      Alcotest.test_case "vaddr pp" `Quick test_vaddr_pp;
      Alcotest.test_case "accessibility names" `Quick test_accessibility_pp;
      Alcotest.test_case "amap pp" `Quick test_amap_pp;
      Alcotest.test_case "port pp" `Quick test_port_pp;
      Alcotest.test_case "message pp" `Quick test_message_pp;
      Alcotest.test_case "report pp" `Quick test_report_pp;
      Alcotest.test_case "stats pp" `Quick test_stats_pp;
      Alcotest.test_case "phys mem no handler" `Quick
        test_phys_mem_full_without_handler;
      Alcotest.test_case "kernel cost threshold" `Quick
        test_kernel_cost_threshold_boundary;
      Alcotest.test_case "migrate failure raises" `Quick
        test_world_migrate_failure_raises;
    ] )
