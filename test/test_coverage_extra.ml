(* Odds and ends the main suites leave thin: trace write-marking, the
   sequential stream interleave, excision of imaginary regions, insertion
   cost monotonicity, NMS byte accounting for IOU messages, and kernel
   forwarding counters. *)
open Accent_mem
open Accent_ipc
open Accent_net
open Accent_kernel
open Accent_core

(* --- Trace.with_writes --- *)

let test_with_writes_fraction () =
  let rng = Accent_util.Rng.create 5L in
  let t =
    Trace.of_array
      (Array.init 2000 (fun i -> Trace.step_read ~think_ms:1. (i mod 50)))
  in
  let marked = Trace.with_writes ~rng ~fraction:0.3 t in
  let ratio = float_of_int (Trace.write_count marked) /. 2000. in
  Alcotest.(check bool) "about 30% writes" true (ratio > 0.25 && ratio < 0.35);
  Alcotest.(check int) "zero fraction marks none" 0
    (Trace.write_count (Trace.with_writes ~rng ~fraction:0. t))

(* --- sequential stream interleave --- *)

let test_sequential_streams_interleave () =
  let rng = Accent_util.Rng.create 9L in
  let universe = Array.init 300 (fun i -> 1000 + i) in
  let pattern =
    Accent_workloads.Access_pattern.Sequential
      { streams = 3; revisit = 0.; run = 100 }
  in
  let touched =
    Accent_workloads.Access_pattern.choose_touched pattern ~rng ~universe
      ~count:90
  in
  let trace =
    Accent_workloads.Access_pattern.generate pattern ~rng ~touched ~refs:90
      ~total_think_ms:100. ~zero_fill:(0, [||])
  in
  (* the first few references must come from different thirds of the
     touched set: streams advance round-robin, not one after another *)
  let first_six = List.init 6 (Trace.page_at trace) in
  let third page =
    let pos = ref 0 in
    Array.iteri (fun i p -> if p = page then pos := i) touched;
    !pos * 3 / Array.length touched
  in
  let thirds = List.sort_uniq compare (List.map third first_six) in
  Alcotest.(check int) "all three streams active early" 3 (List.length thirds)

(* --- excising a space with imaginary regions --- *)

let test_excise_preserves_iou_chunks () =
  let world = World.create ~n_hosts:2 () in
  let h0 = World.host world 0 and h1 = World.host world 1 in
  let backing = Test_helpers.new_backer h1 in
  let segment_id = Backing_server.new_segment backing in
  Backing_server.put_bytes backing ~segment_id ~offset:(8 * 512)
    (Bytes.make (4 * 512) 'r');
  let space = Host.new_space h0 in
  Address_space.install_bytes space ~addr:0 (Bytes.make (2 * 512) 'd')
    ~resident:true;
  Test_helpers.map_segment h0 backing space ~at:(4 * 512) ~segment_id
    ~offset:(8 * 512) ~len:(4 * 512);
  let proc = Host.spawn h0 ~name:"mixed" ~trace:(Trace.of_steps []) ~space () in
  let captured = ref None in
  Excise.excise h0 proc ~k:(fun e -> captured := Some e);
  ignore (World.run world);
  let e = Option.get !captured in
  let data = Memory_object.data_bytes e.Excise.rimas in
  let iou = Memory_object.iou_bytes e.Excise.rimas in
  Alcotest.(check int) "data preserved" (2 * 512) data;
  Alcotest.(check int) "iou preserved" (4 * 512) iou;
  (* the IOU chunk keeps pointing at the ORIGINAL segment and offset *)
  match
    List.find_map
      (fun c ->
        match c.Memory_object.content with
        | Memory_object.Iou { segment_id = s; offset; _ } -> Some (s, offset)
        | Memory_object.Data _ | Memory_object.Digest_refs _ -> None)
      e.Excise.rimas
  with
  | Some (s, offset) ->
      Alcotest.(check int) "segment id" segment_id s;
      Alcotest.(check int) "segment offset" (8 * 512) offset
  | None -> Alcotest.fail "expected an IOU chunk"

(* --- insertion cost monotonicity --- *)

let test_insert_cost_monotone_in_data () =
  let costs = Cost_model.default in
  let core amap_entries =
    {
      Context.proc_id = 1;
      proc_name = "m";
      pcb = Pcb.create ();
      port_rights = [];
      amap =
        Amap.of_ranges
          (List.init amap_entries (fun i ->
               ( i * 2 * 512,
                 (i * 2 * 512) + 512,
                 Accessibility.Real_zero_mem )));
      trace = Trace.of_steps [];
    }
  in
  let rimas pages =
    if pages = 0 then []
    else
      [
        {
          Memory_object.range = Vaddr.of_len 0 (pages * 512);
          content =
            Memory_object.Data
              (Page_run.of_array
                 (Page.values_of_bytes (Bytes.make (pages * 512) 'x')));
        };
      ]
  in
  let c0 = Insert.estimate_ms costs (core 5) (rimas 0) in
  let c_small = Insert.estimate_ms costs (core 5) (rimas 10) in
  let c_big = Insert.estimate_ms costs (core 5) (rimas 100) in
  Alcotest.(check bool) "more data, more cost" true (c0 < c_small && c_small < c_big);
  let c_entries = Insert.estimate_ms costs (core 50) (rimas 0) in
  Alcotest.(check bool) "more entries, more cost" true (c0 < c_entries)

(* --- NMS byte accounting for IOU messages --- *)

let test_iou_message_wire_is_descriptors_only () =
  let result =
    Accent_experiments.Trial.run ~spec:Test_helpers.small_spec
      ~strategy:(Strategy.pure_iou ()) ()
  in
  let r = result.Accent_experiments.Trial.report in
  (* the 32 KB of real memory must NOT appear in bulk traffic *)
  Alcotest.(check bool)
    (Printf.sprintf "bulk bytes tiny (%d)" r.Report.bytes_bulk)
    true
    (r.Report.bytes_bulk < 1024);
  (* while the fault traffic carries roughly touched x (page + headers) *)
  let per_fault =
    float_of_int r.Report.bytes_fault
    /. float_of_int (max 1 r.Report.dest_faults_imag)
  in
  Alcotest.(check bool)
    (Printf.sprintf "per-fault bytes plausible (%.0f)" per_fault)
    true
    (per_fault > 512. && per_fault < 1200.)

(* --- kernel forwarding counters --- *)

let test_kernel_counters_after_migration () =
  let result =
    Accent_experiments.Trial.run ~spec:Test_helpers.small_spec
      ~strategy:(Strategy.pure_iou ()) ()
  in
  let w = result.Accent_experiments.Trial.world in
  let k0 = Host.kernel (World.host w 0) in
  let k1 = Host.kernel (World.host w 1) in
  (* requests are forwarded off host 1; replies off host 0 *)
  Alcotest.(check bool) "source forwarded replies" true
    (Kernel_ipc.forwarded k0 > 0);
  Alcotest.(check bool) "destination forwarded requests" true
    (Kernel_ipc.forwarded k1 > 0);
  Alcotest.(check bool) "local deliveries happened on both" true
    (Kernel_ipc.delivered_locally k0 > 0 && Kernel_ipc.delivered_locally k1 > 0)

(* --- working set pages_within --- *)

let test_pages_within_explicit_window () =
  let ws = Working_set.create ~window:10_000. in
  Working_set.reference ws ~clock:[| 0. |] 1;
  Working_set.reference ws ~clock:[| 5_000. |] 2;
  Working_set.reference ws ~clock:[| 9_000. |] 3;
  Alcotest.(check (list int)) "narrow window" [ 2; 3 ]
    (Working_set.pages_within ws ~time:9_000. ~window:5_000.);
  Alcotest.(check (list int)) "wide window" [ 1; 2; 3 ]
    (Working_set.pages_within ws ~time:9_000. ~window:20_000.)

let suite =
  ( "coverage_extra",
    [
      Alcotest.test_case "with_writes fraction" `Quick test_with_writes_fraction;
      Alcotest.test_case "streams interleave" `Quick
        test_sequential_streams_interleave;
      Alcotest.test_case "excise preserves IOU chunks" `Quick
        test_excise_preserves_iou_chunks;
      Alcotest.test_case "insert cost monotone" `Quick
        test_insert_cost_monotone_in_data;
      Alcotest.test_case "IOU wire = descriptors" `Quick
        test_iou_message_wire_is_descriptors_only;
      Alcotest.test_case "kernel counters" `Quick
        test_kernel_counters_after_migration;
      Alcotest.test_case "pages_within" `Quick test_pages_within_explicit_window;
    ] )
