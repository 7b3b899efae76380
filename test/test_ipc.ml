(* IPC layer: ports, messages and their wire accounting, memory objects,
   segment stores and local kernel delivery with its cost model. *)
open Accent_sim
open Accent_ipc
module Content_store = Accent_net.Content_store

let ids () = Ids.create ()

(* --- Port --- *)

let test_port_fresh_distinct () =
  let ids = ids () in
  let a = Port.fresh ids and b = Port.fresh ids in
  Alcotest.(check bool) "distinct" false (Port.equal a b)

let test_port_rights_names () =
  Alcotest.(check string) "receive" "Receive" (Port.right_to_string Port.Receive);
  Alcotest.(check string) "send" "Send" (Port.right_to_string Port.Send);
  Alcotest.(check string) "ownership" "Ownership"
    (Port.right_to_string Port.Ownership)

(* --- Memory_object --- *)

let data_chunk ~lo len =
  {
    Memory_object.range = Accent_mem.Vaddr.of_len lo len;
    content =
      Memory_object.Data (Accent_mem.Page_run.of_array (Accent_mem.Page.values_of_bytes (Bytes.make len 'd')));
  }

let iou_chunk ids ~lo len =
  {
    Memory_object.range = Accent_mem.Vaddr.of_len lo len;
    content =
      Memory_object.Iou
        { segment_id = 1; backing_port = Port.fresh ids; offset = lo };
  }

let test_memory_object_accounting () =
  let ids = ids () in
  let m = [ data_chunk ~lo:0 1024; iou_chunk ids ~lo:1024 2048 ] in
  Memory_object.validate m;
  Alcotest.(check int) "data" 1024 (Memory_object.data_bytes m);
  Alcotest.(check int) "iou" 2048 (Memory_object.iou_bytes m);
  Alcotest.(check int) "total" 3072 (Memory_object.total_bytes m);
  Alcotest.(check int) "chunks" 2 (Memory_object.chunk_count m);
  Alcotest.(check int) "descriptors" 48 (Memory_object.descriptor_bytes m);
  Alcotest.(check int) "one backing port" 1
    (List.length (Memory_object.iou_ports m))

let test_memory_object_rejects_overlap () =
  Alcotest.check_raises "overlap"
    (Invalid_argument "Memory_object: chunks overlap or out of order")
    (fun () ->
      Memory_object.validate [ data_chunk ~lo:0 1024; data_chunk ~lo:512 1024 ])

let test_memory_object_rejects_bad_length () =
  let chunk =
    {
      Memory_object.range = Accent_mem.Vaddr.of_len 0 1024;
      content =
        Memory_object.Data
          (Accent_mem.Page_run.of_array
             (Accent_mem.Page.values_of_bytes (Bytes.make 512 'd')));
    }
  in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Memory_object: data length disagrees with range")
    (fun () -> Memory_object.validate [ chunk ])

let test_memory_object_rejects_unaligned () =
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Memory_object: chunk range not page-aligned") (fun () ->
      Memory_object.validate [ data_chunk ~lo:100 512 ])

(* --- Message --- *)

let test_message_sizes () =
  let ids = ids () in
  let dest = Port.fresh ids in
  let m = [ data_chunk ~lo:0 1024; iou_chunk ids ~lo:1024 2048 ] in
  let msg =
    Message.make ~ids ~dest ~inline_bytes:100 ~memory:m
      ~rights:[ Port.fresh ids; Port.fresh ids ]
      (Message.Ping 0)
  in
  Alcotest.(check int) "local size includes promised memory"
    (Message.header_bytes + 100 + 16 + 3072)
    (Message.local_size msg);
  Alcotest.(check int) "wire size counts data + descriptors only"
    (Message.header_bytes + 100 + 16 + 48 + 1024)
    (Message.wire_size msg)

let test_message_defaults () =
  let ids = ids () in
  let msg = Message.make ~ids ~dest:(Port.fresh ids) (Message.Ping 1) in
  Alcotest.(check int) "default inline" 64 msg.Message.inline_bytes;
  Alcotest.(check bool) "no_ious off" false msg.Message.no_ious;
  Alcotest.(check bool) "control category" true
    (msg.Message.category = Message.Control)

let test_with_memory_validates () =
  let ids = ids () in
  let msg = Message.make ~ids ~dest:(Port.fresh ids) (Message.Ping 1) in
  Alcotest.check_raises "swap validates"
    (Invalid_argument "Memory_object: chunks overlap or out of order")
    (fun () ->
      ignore
        (Message.with_memory msg
           (Some [ data_chunk ~lo:0 1024; data_chunk ~lo:0 1024 ])))

(* --- Content_store's segment/offset layer, dedup off --- *)

let test_segment_store_roundtrip () =
  let store = Content_store.create () in
  Content_store.put_bytes store ~segment_id:1 ~offset:0 (Bytes.make 1200 'a');
  Alcotest.(check int) "pages" 3 (Content_store.segment_pages store ~segment_id:1);
  let run = Content_store.read_run store ~segment_id:1 ~offset:1024 ~pages:1 in
  Alcotest.(check int) "page present" 1 (Accent_mem.Page_run.length run);
  let page = Accent_mem.Page.to_bytes (Accent_mem.Page_run.get run 0) in
  Alcotest.(check char) "content" 'a' (Bytes.get page 0);
  Alcotest.(check char) "trailing page zero-padded" '\000' (Bytes.get page 511);
  Alcotest.(check int) "absent offset" 0
    (Accent_mem.Page_run.length
       (Content_store.read_run store ~segment_id:1 ~offset:4096 ~pages:1))

(* One segment: two adjacent extents, [0, 1024) of 'a' bytes and
   [1024, 2048) of Pattern pages, a one-page gap, then [2560, 3072). *)
let test_segment_store_read_run () =
  let module R = Accent_mem.Page_run in
  let store = Content_store.create () in
  let read ~offset ~pages =
    Content_store.read_run store ~segment_id:1 ~offset ~pages
  in
  Content_store.put_bytes store ~segment_id:1 ~offset:0 (Bytes.make 1024 'a');
  let pattern = R.pattern ~tag:1 ~first:0 ~len:2 in
  Content_store.put_extent store ~segment_id:1 ~offset:1024 pattern;
  Content_store.put_extent store ~segment_id:1 ~offset:2560
    (R.pattern ~tag:1 ~first:5 ~len:1);
  (* mid-extent start, across the adjacent extent, up to the gap *)
  let run = read ~offset:512 ~pages:8 in
  Alcotest.(check int) "run stops at the gap" 3 (R.length run);
  Alcotest.(check char) "first page from the first extent" 'a'
    (Bytes.get (Accent_mem.Page.to_bytes (R.get run 0)) 0);
  Alcotest.(check bool) "then the second extent's pages" true
    (R.equal (R.sub run ~pos:1 ~len:2) pattern);
  Alcotest.(check int) "bounded by pages" 2
    (R.length (read ~offset:512 ~pages:2));
  Alcotest.(check bool) "a slice of one extent" true
    (R.equal (read ~offset:1536 ~pages:1) (R.sub pattern ~pos:1 ~len:1));
  Alcotest.(check int) "empty when first absent" 0
    (R.length (read ~offset:2048 ~pages:2));
  Alcotest.(check int) "past the gap" 1 (R.length (read ~offset:2560 ~pages:4));
  (* overlap is refused wherever it falls; adjacency is not overlap *)
  List.iter
    (fun (name, offset, len) ->
      Alcotest.check_raises name
        (Invalid_argument "Content_store.put_extent: overlapping extent")
        (fun () ->
          Content_store.put_extent store ~segment_id:1 ~offset
            (R.pattern ~tag:2 ~first:0 ~len)))
    [
      ("left overlap", 2048, 2);
      ("right overlap", 1536, 2);
      ("inside", 512, 1);
      ("covering", 0, 8);
    ];
  Content_store.put_extent store ~segment_id:1 ~offset:2048
    (R.pattern ~tag:2 ~first:0 ~len:1);
  Alcotest.(check int) "an adjacent extent closes the gap" 6
    (R.length (read ~offset:0 ~pages:8));
  Alcotest.(check int) "pages" 6
    (Content_store.segment_pages store ~segment_id:1)

let test_segment_store_keeps_symbolic () =
  (* a Pattern value travels through the store without materializing *)
  let store = Content_store.create () in
  let v = Accent_mem.Page.pattern_value ~tag:21 3 in
  Content_store.put_extent store ~segment_id:2 ~offset:512
    (Accent_mem.Page_run.singleton v);
  let run = Content_store.read_run store ~segment_id:2 ~offset:512 ~pages:4 in
  Alcotest.(check int) "a 1-page run" 1 (Accent_mem.Page_run.length run);
  let back = Accent_mem.Page_run.get run 0 in
  Alcotest.(check bool) "still symbolic" true
    (Accent_mem.Page.is_symbolic back);
  Alcotest.(check bool) "read_run preserves the value" true
    (Accent_mem.Page.equal_value v back)

let test_segment_store_drop () =
  let store = Content_store.create () in
  Content_store.put_bytes store ~segment_id:5 ~offset:0 (Bytes.make 512 'x');
  Alcotest.(check bool) "present" true (Content_store.has_segment store ~segment_id:5);
  Content_store.drop_segment store ~segment_id:5;
  Alcotest.(check bool) "dropped" false
    (Content_store.has_segment store ~segment_id:5);
  Alcotest.(check int) "no pages" 0
    (Content_store.segment_pages store ~segment_id:5)

(* --- Kernel_ipc --- *)

let kernel_world () =
  let engine = Engine.create () in
  let cpu = Queue_server.create engine ~name:"cpu" in
  let kernel = Kernel_ipc.create engine ~cpu in
  (engine, kernel)

let test_kernel_local_delivery () =
  let engine, kernel = kernel_world () in
  let ids = ids () in
  let port = Port.fresh ids in
  let got = ref None in
  Kernel_ipc.bind kernel port (fun msg -> got := Some msg.Message.payload);
  Kernel_ipc.send kernel (Message.make ~ids ~dest:port (Message.Ping 42));
  ignore (Engine.run engine);
  (match !got with
  | Some (Message.Ping 42) -> ()
  | _ -> Alcotest.fail "expected local delivery of Ping 42");
  Alcotest.(check int) "counted" 1 (Kernel_ipc.delivered_locally kernel);
  Alcotest.(check bool) "delivery takes kernel time" true
    (Engine.now engine > 0.)

let test_kernel_forwarding () =
  let engine, kernel = kernel_world () in
  let ids = ids () in
  let forwarded = ref 0 in
  Kernel_ipc.set_forwarder kernel (fun _ -> incr forwarded);
  Kernel_ipc.send kernel
    (Message.make ~ids ~dest:(Port.fresh ids) (Message.Ping 0));
  ignore (Engine.run engine);
  Alcotest.(check int) "forwarded" 1 !forwarded;
  Alcotest.(check int) "nothing local" 0 (Kernel_ipc.delivered_locally kernel)

let test_kernel_unbind () =
  let engine, kernel = kernel_world () in
  let ids = ids () in
  let port = Port.fresh ids in
  let hits = ref 0 in
  Kernel_ipc.bind kernel port (fun _ -> incr hits);
  Kernel_ipc.unbind kernel port;
  Alcotest.(check bool) "no receiver" false
    (Kernel_ipc.has_local_receiver kernel port);
  Kernel_ipc.send kernel (Message.make ~ids ~dest:port (Message.Ping 0));
  ignore (Engine.run engine);
  Alcotest.(check int) "dropped silently" 0 !hits

let test_kernel_cost_small_vs_large () =
  let ids = ids () in
  let dest = Port.fresh ids in
  let small = Message.make ~ids ~dest ~inline_bytes:64 (Message.Ping 0) in
  let large =
    Message.make ~ids ~dest ~inline_bytes:64
      ~memory:[ data_chunk ~lo:0 (512 * 200) ]
      (Message.Ping 0)
  in
  let small_cost = Kernel_ipc.handling_cost small in
  let large_cost = Kernel_ipc.handling_cost large in
  Alcotest.(check bool) "copy path for small" true
    (Time.to_ms small_cost < 2.);
  (* 200 pages at the map rate, not 100 KB at the copy rate *)
  Alcotest.(check bool) "map path for large" true
    (Time.to_ms large_cost < 10.);
  Alcotest.(check bool) "large still costs more" true
    (Time.to_ms large_cost > Time.to_ms small_cost)

let test_kernel_fifo_order () =
  let engine, kernel = kernel_world () in
  let ids = ids () in
  let port = Port.fresh ids in
  let seen = ref [] in
  Kernel_ipc.bind kernel port (fun msg ->
      match msg.Message.payload with
      | Message.Ping n -> seen := n :: !seen
      | _ -> ());
  for i = 1 to 5 do
    Kernel_ipc.send kernel (Message.make ~ids ~dest:port (Message.Ping i))
  done;
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !seen)

let suite =
  ( "ipc",
    [
      Alcotest.test_case "port fresh distinct" `Quick test_port_fresh_distinct;
      Alcotest.test_case "port right names" `Quick test_port_rights_names;
      Alcotest.test_case "memory object accounting" `Quick
        test_memory_object_accounting;
      Alcotest.test_case "memory object overlap" `Quick
        test_memory_object_rejects_overlap;
      Alcotest.test_case "memory object bad length" `Quick
        test_memory_object_rejects_bad_length;
      Alcotest.test_case "memory object unaligned" `Quick
        test_memory_object_rejects_unaligned;
      Alcotest.test_case "message sizes" `Quick test_message_sizes;
      Alcotest.test_case "message defaults" `Quick test_message_defaults;
      Alcotest.test_case "with_memory validates" `Quick
        test_with_memory_validates;
      Alcotest.test_case "segment store roundtrip" `Quick
        test_segment_store_roundtrip;
      Alcotest.test_case "segment store read_run" `Quick
        test_segment_store_read_run;
      Alcotest.test_case "segment store keeps symbolic" `Quick
        test_segment_store_keeps_symbolic;
      Alcotest.test_case "segment store drop" `Quick test_segment_store_drop;
      Alcotest.test_case "kernel local delivery" `Quick
        test_kernel_local_delivery;
      Alcotest.test_case "kernel forwarding" `Quick test_kernel_forwarding;
      Alcotest.test_case "kernel unbind" `Quick test_kernel_unbind;
      Alcotest.test_case "kernel cost model" `Quick
        test_kernel_cost_small_vs_large;
      Alcotest.test_case "kernel fifo order" `Quick test_kernel_fifo_order;
    ] )
