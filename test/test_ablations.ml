(* Ablation experiments: assert the directions each design-choice sweep is
   supposed to show, on small workloads so the suite stays quick. *)
open Accent_experiments

let spec = Test_helpers.small_spec

let column = Test_helpers.column
let cell t row column = (Result_table.find t ~row ~column).Result_table.measured

let test_bandwidth_direction () =
  let t = Ablations.bandwidth_sweep ~spec ~factors:[ 1.; 16. ] () in
  match (column t "copy_s", column t "ratio") with
  | [ slow_copy; fast_copy ], [ slow_ratio; fast_ratio ] ->
      Alcotest.(check bool) "copy transfer shrinks with bandwidth" true
        (fast_copy < slow_copy /. 4.);
      Alcotest.(check bool) "ratio narrows" true (fast_ratio < slow_ratio);
      Alcotest.(check bool) "IOU still ahead on transfer" true
        (fast_ratio > 1.)
  | _ -> Alcotest.fail "expected two rows"

let test_caching_direction () =
  let t = Ablations.caching_ablation ~spec () in
  Alcotest.(check (list (list string))) "flags recorded" [ [ "on" ]; [ "off" ] ]
    (List.map (fun r -> r.Result_table.keys) (Result_table.rows t));
  let on = cell t [ "on" ] and off = cell t [ "off" ] in
  Alcotest.(check bool) "without caching the data ships physically" true
    (off "bulk_bytes"
    >= float_of_int spec.Accent_workloads.Spec.real_bytes);
  Alcotest.(check bool) "with caching almost nothing bulk" true
    (on "bulk_bytes" < 2048.);
  Alcotest.(check (float 0.)) "no faults without caching" 0.
    (off "fault_bytes");
  Alcotest.(check bool) "transfer collapses with caching" true
    (on "transfer_s" *. 5. < off "transfer_s")

let test_backer_load_direction () =
  let t = Ablations.backer_load_sweep ~spec ~lookups:[ 38.; 500. ] () in
  match (column t "remote_exec_s", column t "per_fault_ms") with
  | [ light_exec; heavy_exec ], [ light_fault; heavy_fault ] ->
      Alcotest.(check bool) "loaded backer slows execution" true
        (heavy_exec > 2. *. light_exec);
      Alcotest.(check bool) "per-fault grows by the added latency" true
        (heavy_fault -. light_fault > 300.)
  | _ -> Alcotest.fail "expected two rows"

let test_memory_pressure_direction () =
  (* small spec: 64 real pages; squeeze to 32 frames *)
  let t =
    Ablations.memory_pressure_sweep ~spec ~frame_counts:[ 4096; 32 ] ()
  in
  match
    ( column t "copy_disk_faults",
      column t "copy_exec_s",
      column t "iou_exec_s" )
  with
  | [ roomy_faults; tight_faults ], [ roomy_copy; tight_copy ],
    [ roomy_iou; tight_iou ] ->
      Alcotest.(check (float 0.)) "no thrash with room" 0. roomy_faults;
      Alcotest.(check bool) "copy thrashes when squeezed" true
        (tight_faults > 0.);
      Alcotest.(check bool) "copy slows down more than IOU" true
        (tight_copy -. roomy_copy > tight_iou -. roomy_iou)
  | _ -> Alcotest.fail "expected two rows"

let test_face_off_shape () =
  let t = Ablations.strategy_face_off ~spec ~write_fraction:0.2 () in
  Alcotest.(check int) "four strategies" 4
    (List.length (Result_table.rows t));
  let copy = cell t [ "copy" ] and iou = cell t [ "iou+pf1" ]
  and pre = cell t [ "precopy" ] in
  Alcotest.(check bool) "pre-copy downtime lowest of the physical pair" true
    (pre "downtime_s" < copy "downtime_s" /. 2.);
  Alcotest.(check bool) "pre-copy moves at least as many bytes as copy" true
    (pre "bytes" >= Float.of_int (int_of_float (copy "bytes") * 9 / 10));
  Alcotest.(check bool) "IOU moves the fewest bytes" true
    (List.for_all (fun b -> iou "bytes" <= b) (column t "bytes"))

let test_renderers () =
  let check_render t =
    Alcotest.(check bool) "renders" true
      (String.length (Result_table.text t) > 80)
  in
  check_render (Ablations.bandwidth_sweep ~spec ~factors:[ 1. ] ());
  check_render (Ablations.caching_ablation ~spec ());
  check_render (Ablations.backer_load_sweep ~spec ~lookups:[ 38. ] ());
  check_render (Ablations.memory_pressure_sweep ~spec ~frame_counts:[ 4096 ] ());
  check_render (Ablations.strategy_face_off ~spec ())

(* Each title names the spec and settings its table was built with, not
   the defaults. *)
let test_titles_name_their_spec () =
  let titled label t expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s title names %S" label expected)
      true
      (Test_helpers.contains t.Result_table.title expected)
  in
  titled "bandwidth"
    (Ablations.bandwidth_sweep ~spec ~factors:[ 1. ] ())
    "(Tiny)";
  titled "caching" (Ablations.caching_ablation ~spec ()) "(Tiny, pure-IOU";
  titled "backer load"
    (Ablations.backer_load_sweep ~spec ~lookups:[ 38. ] ())
    "(Tiny, pure-IOU)";
  titled "memory pressure"
    (Ablations.memory_pressure_sweep ~spec ~frame_counts:[ 4096 ] ())
    "(Tiny)";
  titled "face-off"
    (Ablations.strategy_face_off ~spec ~write_fraction:0.2 ())
    "(Tiny, 20% stores)";
  titled "ws vs rs"
    (Ablations.ws_vs_rs ~spec ~migrate_after_ms:2_500. ())
    "(Tiny, migrated live at t=2.5s)";
  titled "flow window"
    (Ablations.flow_window_sweep ~spec ~windows:[ 1 ] ())
    "(Tiny)"

(* Four ablations whose numbers come from the IOU and backing-server
   paths, at their default workloads (what [accentctl ablate] prints),
   pinned by one digest of the rendered tables: caching, backer load,
   the strategy face-off (resident-set banks on the manager's backer)
   and working-set vs resident-set. *)
let test_backing_tables_pinned () =
  let rendered =
    String.concat ""
      [
        Result_table.text (Ablations.caching_ablation ());
        Result_table.text (Ablations.backer_load_sweep ());
        Result_table.text (Ablations.strategy_face_off ());
        Result_table.text (Ablations.ws_vs_rs ());
      ]
  in
  Alcotest.(check string) "rendered tables"
    "9a0f3ed0d7d21d9dfb1bd43c7c506a58"
    (Digest.to_hex (Digest.string rendered))

(* Every ablation table at its default workload, as [accentctl ablate]
   prints them, pinned by one digest. *)
let test_all_tables_pinned () =
  let rendered =
    String.concat ""
      [
        Result_table.text (Ablations.bandwidth_sweep ());
        Result_table.text (Ablations.caching_ablation ());
        Result_table.text (Ablations.backer_load_sweep ());
        Result_table.text (Ablations.memory_pressure_sweep ());
        Result_table.text (Ablations.strategy_face_off ());
        Result_table.text (Ablations.ws_vs_rs ());
        Result_table.text (Ablations.flow_window_sweep ());
        Result_table.text (Ablations.adaptive_prefetch ());
      ]
  in
  Alcotest.(check string) "rendered tables" "ecb70b36b7775b802e86df2c721c50bd"
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
      Alcotest.test_case "titles name their spec" `Quick
        test_titles_name_their_spec;
      Alcotest.test_case "backing tables pinned" `Quick
        test_backing_tables_pinned;
      Alcotest.test_case "all tables pinned" `Quick test_all_tables_pinned;
    ] )

let test_flow_window_direction () =
  let t = Ablations.flow_window_sweep ~spec ~windows:[ 1; 8 ] () in
  match
    (column t "window", column t "copy_s", column t "per_fault_ms")
  with
  | [ saw; _ ], [ saw_copy; pipelined_copy ], [ saw_fault; pipelined_fault ]
    ->
      Alcotest.(check (float 0.)) "stop-and-wait row" 1. saw;
      Alcotest.(check bool) "pipelining speeds bulk copies" true
        (pipelined_copy < saw_copy *. 0.8);
      (* a one-packet fault exchange cannot pipeline *)
      Alcotest.(check bool) "faults barely change" true
        (Float.abs (pipelined_fault -. saw_fault) < 0.15 *. saw_fault)
  | _ -> Alcotest.fail "expected two rows"

let window_cases =
  [ Alcotest.test_case "flow window direction" `Quick test_flow_window_direction ]

let suite = (fst suite, snd suite @ window_cases)
