(* Ablation experiments: assert the directions each design-choice sweep is
   supposed to show, on small workloads so the suite stays quick. *)
open Accent_experiments

let spec = Test_helpers.small_spec

let test_bandwidth_direction () =
  let rows = Ablations.bandwidth_sweep ~spec ~factors:[ 1.; 16. ] () in
  match rows with
  | [ slow; fast ] ->
      Alcotest.(check bool) "copy transfer shrinks with bandwidth" true
        (fast.Ablations.copy_s < slow.Ablations.copy_s /. 4.);
      Alcotest.(check bool) "ratio narrows" true
        (fast.Ablations.ratio < slow.Ablations.ratio);
      Alcotest.(check bool) "IOU still ahead on transfer" true
        (fast.Ablations.ratio > 1.)
  | _ -> Alcotest.fail "expected two rows"

let test_caching_direction () =
  let rows = Ablations.caching_ablation ~spec () in
  match rows with
  | [ on; off ] ->
      Alcotest.(check bool) "flags recorded" true
        (on.Ablations.caching && not off.Ablations.caching);
      Alcotest.(check bool) "without caching the data ships physically" true
        (off.Ablations.bulk_bytes
        >= spec.Accent_workloads.Spec.real_bytes);
      Alcotest.(check bool) "with caching almost nothing bulk" true
        (on.Ablations.bulk_bytes < 2048);
      Alcotest.(check int) "no faults without caching" 0
        off.Ablations.fault_bytes;
      Alcotest.(check bool) "transfer collapses with caching" true
        (on.Ablations.transfer_s *. 5. < off.Ablations.transfer_s)
  | _ -> Alcotest.fail "expected two rows"

let test_backer_load_direction () =
  let rows = Ablations.backer_load_sweep ~spec ~lookups:[ 38.; 500. ] () in
  match rows with
  | [ light; heavy ] ->
      Alcotest.(check bool) "loaded backer slows execution" true
        (heavy.Ablations.remote_exec_s > 2. *. light.Ablations.remote_exec_s);
      Alcotest.(check bool) "per-fault grows by the added latency" true
        (heavy.Ablations.per_fault_ms -. light.Ablations.per_fault_ms > 300.)
  | _ -> Alcotest.fail "expected two rows"

let test_memory_pressure_direction () =
  (* small spec: 64 real pages; squeeze to 32 frames *)
  let rows =
    Ablations.memory_pressure_sweep ~spec ~frame_counts:[ 4096; 32 ] ()
  in
  match rows with
  | [ roomy; tight ] ->
      Alcotest.(check int) "no thrash with room" 0
        roomy.Ablations.copy_disk_faults;
      Alcotest.(check bool) "copy thrashes when squeezed" true
        (tight.Ablations.copy_disk_faults > 0);
      Alcotest.(check bool) "copy slows down more than IOU" true
        (tight.Ablations.copy_exec_s -. roomy.Ablations.copy_exec_s
        > tight.Ablations.iou_exec_s -. roomy.Ablations.iou_exec_s)
  | _ -> Alcotest.fail "expected two rows"

let test_face_off_shape () =
  let rows = Ablations.strategy_face_off ~spec ~write_fraction:0.2 () in
  Alcotest.(check int) "four strategies" 4 (List.length rows);
  let find name =
    List.find (fun r -> r.Ablations.strategy = name) rows
  in
  let copy = find "copy" and iou = find "iou+pf1" and pre = find "precopy" in
  Alcotest.(check bool) "pre-copy downtime lowest of the physical pair" true
    (pre.Ablations.downtime_s < copy.Ablations.downtime_s /. 2.);
  Alcotest.(check bool) "pre-copy moves at least as many bytes as copy" true
    (pre.Ablations.total_bytes >= copy.Ablations.total_bytes * 9 / 10);
  Alcotest.(check bool) "IOU moves the fewest bytes" true
    (List.for_all
       (fun r -> r == iou || iou.Ablations.total_bytes <= r.Ablations.total_bytes)
       rows)

let test_renderers () =
  let check_render s = Alcotest.(check bool) "renders" true (String.length s > 80) in
  check_render
    (Ablations.render_bandwidth (Ablations.bandwidth_sweep ~spec ~factors:[ 1. ] ()));
  check_render (Ablations.render_caching (Ablations.caching_ablation ~spec ()));
  check_render
    (Ablations.render_backer (Ablations.backer_load_sweep ~spec ~lookups:[ 38. ] ()));
  check_render
    (Ablations.render_pressure
       (Ablations.memory_pressure_sweep ~spec ~frame_counts:[ 4096 ] ()));
  check_render
    (Ablations.render_face_off (Ablations.strategy_face_off ~spec ()))

(* Four ablations whose numbers come from the IOU and backing-server
   paths, at their default workloads (what [accentctl ablate] prints),
   pinned by one digest of the rendered tables: caching, backer load,
   the strategy face-off (resident-set banks on the manager's backer)
   and working-set vs resident-set. *)
let test_backing_tables_pinned () =
  let rendered =
    String.concat ""
      [
        Ablations.render_caching (Ablations.caching_ablation ());
        Ablations.render_backer (Ablations.backer_load_sweep ());
        Ablations.render_face_off (Ablations.strategy_face_off ());
        Ablations.render_ws_vs_rs (Ablations.ws_vs_rs ());
      ]
  in
  Alcotest.(check string) "rendered tables"
    "3bb0b9c4d3184577f31da57d59c3e367"
    (Digest.to_hex (Digest.string rendered))

let suite =
  ( "ablations",
    [
      Alcotest.test_case "bandwidth direction" `Quick test_bandwidth_direction;
      Alcotest.test_case "caching direction" `Quick test_caching_direction;
      Alcotest.test_case "backer load direction" `Quick
        test_backer_load_direction;
      Alcotest.test_case "memory pressure direction" `Quick
        test_memory_pressure_direction;
      Alcotest.test_case "face-off shape" `Quick test_face_off_shape;
      Alcotest.test_case "renderers" `Quick test_renderers;
      Alcotest.test_case "backing tables pinned" `Quick
        test_backing_tables_pinned;
    ] )

let test_flow_window_direction () =
  let rows = Ablations.flow_window_sweep ~spec ~windows:[ 1; 8 ] () in
  match rows with
  | [ saw; pipelined ] ->
      Alcotest.(check int) "stop-and-wait row" 1 saw.Ablations.window;
      Alcotest.(check bool) "pipelining speeds bulk copies" true
        (pipelined.Ablations.win_copy_s < saw.Ablations.win_copy_s *. 0.8);
      (* a one-packet fault exchange cannot pipeline *)
      Alcotest.(check bool) "faults barely change" true
        (Float.abs (pipelined.Ablations.win_fault_ms -. saw.Ablations.win_fault_ms)
        < 0.15 *. saw.Ablations.win_fault_ms)
  | _ -> Alcotest.fail "expected two rows"

let window_cases =
  [ Alcotest.test_case "flow window direction" `Quick test_flow_window_direction ]

let suite = (fst suite, snd suite @ window_cases)
