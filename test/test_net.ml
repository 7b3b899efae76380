(* Network substrate: link fragmentation and timing, the registry, and
   NetMsgServer forwarding including §2.4 IOU caching and backing
   service.  These build small two-host worlds from kernel-level parts. *)
open Accent_sim
open Accent_ipc
open Accent_net

let monitor () = Transfer_monitor.create ()

(* --- Link --- *)

let test_link_fragment_math () =
  Alcotest.(check int) "one fragment minimum" 1 (Link.fragments_for 0);
  Alcotest.(check int) "exact" 1 (Link.fragments_for Link.fragment_bytes);
  Alcotest.(check int) "spill" 2 (Link.fragments_for (Link.fragment_bytes + 1));
  Alcotest.(check int) "wire includes headers"
    (3000 + (2 * Link.fragment_overhead_bytes))
    (Link.wire_bytes_for 3000)

(* The edge cases of fragments_for: a 0-byte transmission (control-only
   message, bare ack) still needs one header-only packet; exact multiples
   don't spill; one byte over does. *)
let test_link_fragment_edges () =
  let fb = Link.fragment_bytes in
  Alcotest.(check int) "zero bytes -> one packet" 1 (Link.fragments_for 0);
  Alcotest.(check int) "one byte" 1 (Link.fragments_for 1);
  Alcotest.(check int) "one under" 1 (Link.fragments_for (fb - 1));
  Alcotest.(check int) "exact multiple" 3 (Link.fragments_for (3 * fb));
  Alcotest.(check int) "off by one" 4 (Link.fragments_for ((3 * fb) + 1));
  Alcotest.(check int) "zero-byte wire size is pure header"
    Link.fragment_overhead_bytes (Link.wire_bytes_for 0)

let test_link_transmit_timing () =
  let engine = Engine.create () in
  let mon = monitor () in
  let link = Link.create engine ~params:Link.default_params ~monitor:mon in
  let arrived = ref (-1.) and fate = ref Fault_plan.Dropped in
  Link.transmit_frag link ~src:0 ~dst:1 ~bytes:1250 ~category:Message.Bulk
    (fun f ->
      fate := f;
      arrived := Engine.now engine);
  ignore (Engine.run engine);
  (* (1250 + 32) / 1250 B/ms + 2ms latency *)
  Alcotest.(check (float 0.01)) "arrival time" 3.0256 !arrived;
  Alcotest.(check bool) "the default plan delivers" true
    (!fate = Fault_plan.Delivered);
  Alcotest.(check int) "bytes recorded with headers" 1282 (Link.bytes_sent link);
  Alcotest.(check int) "monitor saw it" 1282
    (Transfer_monitor.bytes_of mon Message.Bulk)

(* The medium is one FIFO resource: a fault packet queued behind a bulk
   train waits for the whole train to serialise. *)
let test_link_serializes_transfers () =
  let engine = Engine.create () in
  let link =
    Link.create engine ~params:Link.default_params ~monitor:(monitor ())
  in
  let order = ref [] in
  for i = 1 to 8 do
    Link.transmit_frag link ~src:0 ~dst:1 ~bytes:Link.fragment_bytes
      ~category:Message.Bulk (fun _ ->
        order := Printf.sprintf "bulk%d" i :: !order)
  done;
  let arrived = ref (-1.) in
  Link.transmit_frag link ~src:0 ~dst:1 ~bytes:100 ~category:Message.Fault
    (fun _ ->
      order := "small" :: !order;
      arrived := Engine.now engine);
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "FIFO medium"
    (List.init 8 (fun i -> Printf.sprintf "bulk%d" (i + 1)) @ [ "small" ])
    (List.rev !order);
  (* 8 x (1536 + 32) bytes of bulk, then (100 + 32) of fault, at 1250 B/ms
     (10.1408 ms), then one 2 ms latency *)
  Alcotest.(check (float 0.001))
    "fault packet arrives one latency after the bulk train" 12.1408 !arrived

(* --- Fault_plan --- *)

let fp_state plan =
  let engine = Engine.create () in
  Fault_plan.make plan ~rng:(Engine.rng engine "test.fault_plan")

let test_fault_plan_clean () =
  let s = fp_state Fault_plan.none in
  for i = 0 to 99 do
    let d = Fault_plan.decide s ~now_ms:(float_of_int i) ~src:0 ~dst:1 in
    Alcotest.(check bool) "delivered" true (d.Fault_plan.fate = Fault_plan.Delivered);
    Alcotest.(check (float 0.)) "no delay" 0. d.Fault_plan.extra_delay_ms
  done;
  Alcotest.(check int) "counted" 100 (Fault_plan.decided s);
  Alcotest.(check int) "nothing dropped" 0 (Fault_plan.dropped s);
  Alcotest.(check bool) "clean" true (Fault_plan.is_clean Fault_plan.none)

let test_fault_plan_certain_loss () =
  let s = fp_state (Fault_plan.iid 1.) in
  for _ = 1 to 50 do
    let d = Fault_plan.decide s ~now_ms:0. ~src:0 ~dst:1 in
    Alcotest.(check bool) "dropped" true (d.Fault_plan.fate = Fault_plan.Dropped)
  done;
  Alcotest.(check int) "all counted" 50 (Fault_plan.dropped s)

let test_fault_plan_corruption () =
  let s = fp_state (Fault_plan.with_corruption 1. Fault_plan.none) in
  let d = Fault_plan.decide s ~now_ms:0. ~src:0 ~dst:1 in
  Alcotest.(check bool) "corrupted" true (d.Fault_plan.fate = Fault_plan.Corrupted);
  Alcotest.(check int) "counted" 1 (Fault_plan.corrupted s)

let test_fault_plan_burst_rate () =
  (* the Gilbert–Elliott chain's long-run loss should sit near the target *)
  let s = fp_state (Fault_plan.burst 0.05) in
  let n = 50_000 in
  for _ = 1 to n do
    ignore (Fault_plan.decide s ~now_ms:0. ~src:0 ~dst:1)
  done;
  let rate = float_of_int (Fault_plan.dropped s) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "burst loss rate %.3f near 0.05" rate)
    true
    (rate > 0.02 && rate < 0.10)

let test_fault_plan_partition_schedule () =
  let plan =
    Fault_plan.with_partition ~between:(0, 1) ~start_ms:100. ~duration_ms:50.
      Fault_plan.none
  in
  let active = Fault_plan.partitioned plan in
  Alcotest.(check bool) "before" false (active ~now_ms:99. ~src:0 ~dst:1);
  Alcotest.(check bool) "during" true (active ~now_ms:100. ~src:0 ~dst:1);
  Alcotest.(check bool) "symmetric" true (active ~now_ms:120. ~src:1 ~dst:0);
  Alcotest.(check bool) "other pair unaffected" false
    (active ~now_ms:120. ~src:0 ~dst:2);
  Alcotest.(check bool) "healed" false (active ~now_ms:150. ~src:0 ~dst:1);
  let s = fp_state plan in
  let d = Fault_plan.decide s ~now_ms:110. ~src:0 ~dst:1 in
  Alcotest.(check bool) "partition drops" true
    (d.Fault_plan.fate = Fault_plan.Dropped)

(* --- Transfer_monitor --- *)

let test_monitor_accounting () =
  let mon = monitor () in
  Transfer_monitor.record mon ~time:10. ~category:Message.Fault ~bytes:100;
  Transfer_monitor.record mon ~time:20. ~category:Message.Bulk ~bytes:500;
  Transfer_monitor.note_message mon ~category:Message.Fault;
  Alcotest.(check int) "fault bytes" 100
    (Transfer_monitor.bytes_of mon Message.Fault);
  Alcotest.(check int) "total" 600 (Transfer_monitor.bytes_total mon);
  Alcotest.(check int) "messages" 1 (Transfer_monitor.messages_total mon);
  Transfer_monitor.record mon ~time:999. ~category:Message.Bulk ~bytes:7;
  Transfer_monitor.record mon ~time:1000. ~category:Message.Bulk ~bytes:9;
  Transfer_monitor.record mon ~time:3500. ~category:Message.Bulk ~bytes:4;
  Alcotest.(check (array int))
    "bulk bins: 999 ms in second 0, 1000 ms in 1, quiet 2 reads 0"
    [| 507; 9; 0; 4 |]
    (Transfer_monitor.bins_of mon Message.Bulk);
  Alcotest.(check (array int))
    "fault bins run through its last recorded second" [| 100 |]
    (Transfer_monitor.bins_of mon Message.Fault);
  Alcotest.(check (array int))
    "no records, no bins" [||]
    (Transfer_monitor.bins_of mon Message.Ack);
  Transfer_monitor.reset mon;
  Alcotest.(check int) "reset" 0 (Transfer_monitor.bytes_total mon);
  Alcotest.(check (array int))
    "reset empties the bins" [||]
    (Transfer_monitor.bins_of mon Message.Bulk);
  Transfer_monitor.record mon ~time:1500. ~category:Message.Bulk ~bytes:3;
  Alcotest.(check (array int))
    "bins after reset start from zero" [| 0; 3 |]
    (Transfer_monitor.bins_of mon Message.Bulk)

let categories =
  Message.[ Control; Bulk; Fault; Retransmit; Ack ]

let prop_monitor_bins =
  QCheck.Test.make ~count:200
    ~name:"monitor bins sum to bytes_of and span to the last second"
    QCheck.(
      list_of_size
        Gen.(int_range 0 60)
        (triple (int_range 0 4) (float_range 0. 10_000.) (int_range 0 2000)))
    (fun records ->
      let mon = monitor () in
      List.iter
        (fun (c, time, bytes) ->
          Transfer_monitor.record mon ~time
            ~category:(List.nth categories c) ~bytes)
        records;
      List.for_all
        (fun category ->
          let bins = Transfer_monitor.bins_of mon category in
          let expected_len =
            List.fold_left
              (fun acc (c, time, _) ->
                if List.nth categories c = category then
                  max acc (int_of_float (Float.floor (time /. 1000.)) + 1)
                else acc)
              0 records
          in
          Array.fold_left ( + ) 0 bins
          = Transfer_monitor.bytes_of mon category
          && Array.length bins = expected_len)
        categories)

(* --- Net_registry --- *)

let test_registry_homes () =
  let reg = Net_registry.create () in
  let ids = Ids.create () in
  let port = Port.fresh ids in
  Alcotest.(check (option int)) "unknown" None (Net_registry.port_home reg port);
  Net_registry.set_port_home reg port ~host_id:3;
  Alcotest.(check (option int)) "homed" (Some 3)
    (Net_registry.port_home reg port);
  Net_registry.set_port_home reg port ~host_id:4;
  Alcotest.(check (option int)) "rehomed (rights moved)" (Some 4)
    (Net_registry.port_home reg port);
  Net_registry.forget_port reg port;
  Alcotest.(check (option int)) "forgotten" None
    (Net_registry.port_home reg port)

(* --- Two-host NMS world --- *)

type nms_world = {
  engine : Engine.t;
  ids : Ids.t;
  registry : Net_registry.t;
  monitor : Transfer_monitor.t;
  link : Link.t;
  kernels : Kernel_ipc.t array;
  servers : Netmsgserver.t array;
}

let nms_world ?(params = Netmsgserver.default_params) ?fault_plan () =
  let engine = Engine.create () in
  let ids = Ids.create () in
  let registry = Net_registry.create () in
  let monitor = Transfer_monitor.create () in
  let link =
    Link.create ?fault_plan engine ~params:Link.default_params ~monitor
  in
  let make host_id =
    let cpu = Queue_server.create engine ~name:(Printf.sprintf "cpu%d" host_id) in
    let kernel = Kernel_ipc.create engine ~cpu in
    let nms =
      Netmsgserver.create engine ~ids ~host_id ~kernel ~link ~registry
        ~monitor ~params
    in
    (kernel, nms)
  in
  let pairs = Array.init 2 make in
  {
    engine;
    ids;
    registry;
    monitor;
    link;
    kernels = Array.map fst pairs;
    servers = Array.map snd pairs;
  }

let remote_port w ~on:host_id handler =
  let port = Port.fresh w.ids in
  Kernel_ipc.bind w.kernels.(host_id) port handler;
  Net_registry.set_port_home w.registry port ~host_id;
  port

let test_nms_cross_host_delivery () =
  let w = nms_world () in
  let got = ref [] in
  let port =
    remote_port w ~on:1 (fun msg ->
        match msg.Message.payload with
        | Message.Ping n -> got := n :: !got
        | _ -> ())
  in
  (* sent from host 0's kernel; no local receiver -> NMS -> host 1 *)
  Kernel_ipc.send w.kernels.(0) (Message.make ~ids:w.ids ~dest:port (Message.Ping 7));
  ignore (Engine.run w.engine);
  Alcotest.(check (list int)) "delivered across hosts" [ 7 ] !got;
  Alcotest.(check int) "both servers handled it" 2
    (Netmsgserver.messages_handled w.servers.(0)
    + Netmsgserver.messages_handled w.servers.(1));
  Alcotest.(check bool) "busy time accrued on both sides" true
    (Netmsgserver.busy_time w.servers.(0) > 0.
    && Netmsgserver.busy_time w.servers.(1) > 0.)

let test_nms_large_message_fragments () =
  let w = nms_world () in
  let delivered = ref 0 in
  let port = remote_port w ~on:1 (fun _ -> incr delivered) in
  let memory =
    [
      {
        Memory_object.range = Accent_mem.Vaddr.of_len 0 (512 * 20);
        content =
          Memory_object.Data
            (Accent_mem.Page_run.of_array
               (Accent_mem.Page.values_of_bytes (Bytes.make (512 * 20) 'x')));
      };
    ]
  in
  Kernel_ipc.send w.kernels.(0)
    (Message.make ~ids:w.ids ~dest:port ~memory ~no_ious:true
       ~category:Message.Bulk (Message.Ping 0));
  ignore (Engine.run w.engine);
  Alcotest.(check int) "delivered exactly once" 1 !delivered;
  (* ~10 KB at 1536 B/fragment: several packets on the wire *)
  Alcotest.(check bool) "fragmented" true
    (Transfer_monitor.bytes_of w.monitor Message.Bulk > 512 * 20)

let test_nms_iou_caching () =
  let w = nms_world () in
  let received_memory = ref None in
  let port =
    remote_port w ~on:1 (fun msg -> received_memory := msg.Message.memory)
  in
  let payload_bytes = Bytes.make (512 * 8) 'y' in
  let memory =
    [
      {
        Memory_object.range = Accent_mem.Vaddr.of_len 0 (512 * 8);
        content = Memory_object.Data (Accent_mem.Page_run.of_array (Accent_mem.Page.values_of_bytes payload_bytes));
      };
    ]
  in
  Kernel_ipc.send w.kernels.(0)
    (Message.make ~ids:w.ids ~dest:port ~memory ~category:Message.Bulk
       (Message.Ping 0));
  ignore (Engine.run w.engine);
  (* the sender-side NMS must have retained the data and passed IOUs *)
  Alcotest.(check int) "data cached at source" (512 * 8)
    (Netmsgserver.bytes_cached w.servers.(0));
  Alcotest.(check int) "one segment backed" 1
    (Netmsgserver.segments_backed w.servers.(0));
  (match !received_memory with
  | Some [ { Memory_object.content = Memory_object.Iou _; _ } ] -> ()
  | _ -> Alcotest.fail "receiver should have seen a single IOU chunk");
  (* almost nothing crossed the wire *)
  Alcotest.(check bool) "bytes stayed home" true
    (Transfer_monitor.bytes_of w.monitor Message.Bulk < 1024)

let test_nms_no_ious_bit_respected () =
  let w = nms_world () in
  let port = remote_port w ~on:1 (fun _ -> ()) in
  let memory =
    [
      {
        Memory_object.range = Accent_mem.Vaddr.of_len 0 512;
        content =
          Memory_object.Data
            (Accent_mem.Page_run.of_array
               (Accent_mem.Page.values_of_bytes (Bytes.make 512 'z')));
      };
    ]
  in
  Kernel_ipc.send w.kernels.(0)
    (Message.make ~ids:w.ids ~dest:port ~memory ~no_ious:true
       ~category:Message.Bulk (Message.Ping 0));
  ignore (Engine.run w.engine);
  Alcotest.(check int) "nothing cached" 0
    (Netmsgserver.bytes_cached w.servers.(0));
  Alcotest.(check bool) "data crossed the wire" true
    (Transfer_monitor.bytes_of w.monitor Message.Bulk >= 512)

let test_nms_caching_disabled_by_params () =
  let w =
    nms_world
      ~params:{ Netmsgserver.default_params with Netmsgserver.iou_caching = false }
      ()
  in
  let port = remote_port w ~on:1 (fun _ -> ()) in
  let memory =
    [
      {
        Memory_object.range = Accent_mem.Vaddr.of_len 0 512;
        content =
          Memory_object.Data
            (Accent_mem.Page_run.of_array
               (Accent_mem.Page.values_of_bytes (Bytes.make 512 'z')));
      };
    ]
  in
  Kernel_ipc.send w.kernels.(0)
    (Message.make ~ids:w.ids ~dest:port ~memory ~category:Message.Bulk
       (Message.Ping 0));
  ignore (Engine.run w.engine);
  Alcotest.(check int) "ablation: no caching" 0
    (Netmsgserver.bytes_cached w.servers.(0))

let test_nms_serves_cached_faults_and_death () =
  let w = nms_world () in
  let received = ref None in
  let dest_port = remote_port w ~on:1 (fun msg -> received := Some msg) in
  let payload = Bytes.init (512 * 4) (fun i -> Char.chr (i mod 251)) in
  let memory =
    [
      {
        Memory_object.range = Accent_mem.Vaddr.of_len 0 (512 * 4);
        content = Memory_object.Data (Accent_mem.Page_run.of_array (Accent_mem.Page.values_of_bytes payload));
      };
    ]
  in
  Kernel_ipc.send w.kernels.(0)
    (Message.make ~ids:w.ids ~dest:dest_port ~memory ~category:Message.Bulk
       (Message.Ping 0));
  ignore (Engine.run w.engine);
  let segment_id, backing_port =
    match !received with
    | Some
        {
          Message.memory =
            Some
              [
                {
                  Memory_object.content =
                    Memory_object.Iou { segment_id; backing_port; _ };
                  _;
                };
              ];
          _;
        } ->
        (segment_id, backing_port)
    | _ -> Alcotest.fail "expected an IOU"
  in
  (* fault on pages 1-2 from host 1 *)
  let reply = ref None in
  let reply_port = remote_port w ~on:1 (fun msg -> reply := Some msg) in
  Kernel_ipc.send w.kernels.(1)
    (Protocol.read_request ~ids:w.ids ~dest:backing_port ~reply_to:reply_port
       ~segment_id ~offset:512 ~pages:2);
  ignore (Engine.run w.engine);
  (match !reply with
  | Some { Message.payload = Protocol.Imaginary_read_reply r; _ } ->
      Alcotest.(check int) "offset echoed" 512 r.offset;
      Alcotest.(check int) "two pages" 2
        (Accent_mem.Page_run.length r.page_data);
      let first =
        Accent_mem.Page.to_bytes (Accent_mem.Page_run.get r.page_data 0)
      in
      Alcotest.(check bool) "page contents are the cached data" true
        (Bytes.equal first (Bytes.sub payload 512 512))
  | _ -> Alcotest.fail "expected a read reply");
  Alcotest.(check int) "fault served" 1
    (Netmsgserver.faults_served w.servers.(0));
  Alcotest.(check int) "pages served" 2 (Netmsgserver.pages_served w.servers.(0));
  (* death retires the segment *)
  Kernel_ipc.send w.kernels.(1)
    (Protocol.segment_death ~ids:w.ids ~dest:backing_port ~segment_id);
  ignore (Engine.run w.engine);
  Alcotest.(check int) "segment retired" 0
    (Netmsgserver.segments_backed w.servers.(0))

(* Send [pages] pages of [fill] from host 0 to host 1 with IOU caching on
   and return the IOU the receiver saw. *)
let send_cached w ~pages ~fill =
  let received = ref None in
  let dest_port = remote_port w ~on:1 (fun msg -> received := msg.Message.memory) in
  Kernel_ipc.send w.kernels.(0)
    (Message.make ~ids:w.ids ~dest:dest_port
       ~memory:
         [
           {
             Memory_object.range = Accent_mem.Vaddr.of_len 0 (512 * pages);
             content =
               Memory_object.Data
                 (Accent_mem.Page_run.of_array
                    (Accent_mem.Page.values_of_bytes
                       (Bytes.make (512 * pages) fill)));
           };
         ]
       ~category:Message.Bulk (Message.Ping 0));
  ignore (Engine.run w.engine);
  match !received with
  | Some
      [
        {
          Memory_object.content =
            Memory_object.Iou { segment_id; backing_port; offset };
          _;
        };
      ] ->
      (segment_id, backing_port, offset)
  | _ -> Alcotest.fail "expected one IOU chunk"

(* Fault one page of an IOU from host 1; the reply's pages, if any came. *)
let fault_iou w (segment_id, backing_port, offset) =
  let reply = ref None in
  let reply_port =
    remote_port w ~on:1 (fun msg ->
        match msg.Message.payload with
        | Protocol.Imaginary_read_reply r ->
            reply :=
              Some (Array.to_list (Accent_mem.Page_run.to_array r.page_data))
        | _ -> ())
  in
  Kernel_ipc.send w.kernels.(1)
    (Protocol.read_request ~ids:w.ids ~dest:backing_port ~reply_to:reply_port
       ~segment_id ~offset ~pages:1);
  ignore (Engine.run w.engine);
  !reply

(* A backing crash loses the cache, not the ability to cache: the next
   message is served again, from a fresh backing port. *)
let test_nms_caches_again_after_fail_backing () =
  let w = nms_world () in
  let lost = send_cached w ~pages:2 ~fill:'a' in
  Netmsgserver.fail_backing w.servers.(0);
  Alcotest.(check int) "cache gone" 0
    (Netmsgserver.segments_backed w.servers.(0));
  Alcotest.(check bool) "lost segment unanswered" true (fault_iou w lost = None);
  let fresh = send_cached w ~pages:2 ~fill:'b' in
  let port_of (_, backing_port, _) = backing_port in
  Alcotest.(check bool) "a new backing port" true
    (not (Port.equal (port_of fresh) (port_of lost)));
  Alcotest.(check int) "one segment backed" 1
    (Netmsgserver.segments_backed w.servers.(0));
  match fault_iou w fresh with
  | Some [ page ] ->
      Alcotest.(check char) "the new message's data" 'b'
        (Bytes.get (Accent_mem.Page.to_bytes page) 0)
  | _ -> Alcotest.fail "expected a one-page reply"

(* --- Reliable transport --- *)

(* any fault plan on the link, the clean one included, turns the ARQ on *)
let arq_world ?(fault_plan = Fault_plan.none) () = nms_world ~fault_plan ()

let sender_rel w =
  match Netmsgserver.reliability w.servers.(0) with
  | Some rel -> rel
  | None -> Alcotest.fail "ARQ not enabled"

let receiver_rel w =
  match Netmsgserver.reliability w.servers.(1) with
  | Some rel -> rel
  | None -> Alcotest.fail "ARQ not enabled"

let bulk_message w ~dest ~pages =
  let len = 512 * pages in
  Message.make ~ids:w.ids ~dest
    ~memory:
      [
        {
          Memory_object.range = Accent_mem.Vaddr.of_len 0 len;
          content =
            Memory_object.Data
              (Accent_mem.Page_run.of_array
                 (Accent_mem.Page.values_of_bytes
                    (Bytes.init len (fun i -> Char.chr (i mod 251)))));
        };
      ]
    ~no_ious:true ~category:Message.Bulk (Message.Ping 0)

let test_arq_clean_delivery () =
  let w = arq_world () in
  let delivered = ref 0 in
  let port = remote_port w ~on:1 (fun _ -> incr delivered) in
  Kernel_ipc.send w.kernels.(0) (bulk_message w ~dest:port ~pages:20);
  ignore (Engine.run w.engine);
  Alcotest.(check int) "delivered once" 1 !delivered;
  Alcotest.(check int) "no retransmissions on a clean wire" 0
    (Reliable.retransmissions (sender_rel w));
  Alcotest.(check bool) "acks are real wire traffic" true
    (Reliable.acks_sent (receiver_rel w) > 0
    && Transfer_monitor.bytes_of w.monitor Message.Ack > 0);
  Alcotest.(check int) "no retransmit bytes" 0
    (Transfer_monitor.bytes_of w.monitor Message.Retransmit)

let test_arq_loss_recovery () =
  let w = arq_world ~fault_plan:(Fault_plan.iid 0.2) () in
  let delivered = ref 0 in
  let port = remote_port w ~on:1 (fun _ -> incr delivered) in
  Kernel_ipc.send w.kernels.(0) (bulk_message w ~dest:port ~pages:40);
  ignore (Engine.run w.engine);
  Alcotest.(check int) "delivered exactly once despite 20% loss" 1 !delivered;
  Alcotest.(check bool) "losses were retransmitted" true
    (Reliable.retransmissions (sender_rel w) > 0);
  Alcotest.(check bool) "retransmit traffic is accounted separately" true
    (Transfer_monitor.bytes_of w.monitor Message.Retransmit > 0);
  Alcotest.(check bool) "goodput excludes the overhead" true
    (Transfer_monitor.goodput_bytes w.monitor
     + Transfer_monitor.overhead_bytes w.monitor
    = Transfer_monitor.bytes_total w.monitor)

let test_arq_corruption_recovery () =
  let w =
    arq_world ~fault_plan:(Fault_plan.with_corruption 0.3 Fault_plan.none) ()
  in
  let delivered = ref 0 in
  let port = remote_port w ~on:1 (fun _ -> incr delivered) in
  Kernel_ipc.send w.kernels.(0) (bulk_message w ~dest:port ~pages:40);
  ignore (Engine.run w.engine);
  Alcotest.(check int) "delivered exactly once despite corruption" 1 !delivered;
  Alcotest.(check bool) "checksums caught damaged fragments" true
    (Reliable.checksum_failures (receiver_rel w) > 0);
  Alcotest.(check bool) "damaged fragments were resent" true
    (Reliable.retransmissions (sender_rel w) > 0)

let test_arq_reordering_tolerated () =
  let w =
    arq_world
      ~fault_plan:(Fault_plan.with_reordering ~max_ms:15. 0.5 Fault_plan.none)
      ()
  in
  let delivered = ref 0 in
  let port = remote_port w ~on:1 (fun _ -> incr delivered) in
  Kernel_ipc.send w.kernels.(0) (bulk_message w ~dest:port ~pages:40);
  ignore (Engine.run w.engine);
  Alcotest.(check int) "delivered exactly once despite reordering" 1 !delivered

let test_arq_give_up_on_partition () =
  (* a partition covering the whole transfer and outlasting the retry
     span: the transport must abandon the message, not retry forever *)
  let w =
    arq_world
      ~fault_plan:
        (Fault_plan.with_partition ~start_ms:0. ~duration_ms:3_600_000.
           Fault_plan.none)
      ()
  in
  let delivered = ref 0 and gave_up = ref 0 in
  Netmsgserver.on_transport_give_up w.servers.(0) (fun _ -> incr gave_up);
  let port = remote_port w ~on:1 (fun _ -> incr delivered) in
  Kernel_ipc.send w.kernels.(0) (bulk_message w ~dest:port ~pages:4);
  let final = Engine.run w.engine in
  Alcotest.(check int) "never delivered" 0 !delivered;
  Alcotest.(check int) "give-up reported to the NMS" 1 !gave_up;
  Alcotest.(check int) "give-up counted" 1
    (Netmsgserver.transport_give_ups w.servers.(0));
  (* the retry schedule is bounded: 6,375 ms of timers, see below *)
  Alcotest.(check bool) "gave up promptly instead of hanging" true
    (final < 10_000.)

(* [World.create] has no transport switch: the NMSes run the ARQ exactly
   when the link carries a fault plan, the clean one included (the loss
   sweep's 0% point measures the ack overhead this way). *)
let test_arq_iff_fault_plan () =
  let arq_hosts w =
    List.init 3 (fun i ->
        Option.is_some
          (Netmsgserver.reliability
             (Accent_kernel.Host.nms (Accent_core.World.host w i))))
  in
  Alcotest.(check (list bool)) "no fault plan, no ARQ" [ false; false; false ]
    (arq_hosts (Accent_core.World.create ~n_hosts:3 ()));
  Alcotest.(check (list bool)) "the clean plan turns it on" [ true; true; true ]
    (arq_hosts
       (Accent_core.World.create ~fault_plan:Fault_plan.none ~n_hosts:3 ()))

let test_arq_give_up_time () =
  (* one fragment across a permanent partition: 9 transmissions whose
     timers wait 25+50+100+200+400+800+1600+1600+1600 = 6,375 ms in all,
     plus the kernel's handling of the message and the sending NMS's CPU
     charge for each transmission (2 ms + 0.032 ms per wire byte) *)
  let w =
    arq_world
      ~fault_plan:
        (Fault_plan.with_partition ~start_ms:0. ~duration_ms:3_600_000.
           Fault_plan.none)
      ()
  in
  let gave_up_at = ref [] in
  Netmsgserver.on_transport_give_up w.servers.(0) (fun _ ->
      gave_up_at := Engine.now w.engine :: !gave_up_at);
  let port = remote_port w ~on:1 (fun _ -> ()) in
  let msg = Message.make ~ids:w.ids ~dest:port (Message.Ping 0) in
  let wire = Message.wire_size msg in
  Alcotest.(check int) "one fragment" 1 (Link.fragments_for wire);
  Kernel_ipc.send w.kernels.(0) msg;
  ignore (Engine.run w.engine);
  let kernel_ms = Time.to_ms (Kernel_ipc.handling_cost msg) in
  let send_ms = 2. +. (0.032 *. float_of_int wire) in
  Alcotest.(check (list (float 1e-6))) "give-up time"
    [ kernel_ms +. (9. *. send_ms) +. 6_375. ]
    !gave_up_at;
  Alcotest.(check int) "8 retransmissions" 8
    (Reliable.retransmissions (sender_rel w))

(* One long message over loss, reordering and corruption at once, at the
   engine's default seed: every ack the receiver sends (and so every
   SACK list it builds) shapes the retransmissions that follow, so the
   exact counters pin the selective-ack selection end to end. *)
let test_arq_sack_pin () =
  let w =
    arq_world
      ~fault_plan:
        Fault_plan.(iid 0.2 |> with_reordering 0.3 |> with_corruption 0.1)
      ()
  in
  let delivered = ref 0 in
  let port = remote_port w ~on:1 (fun _ -> incr delivered) in
  let msg = bulk_message w ~dest:port ~pages:11_998 in
  Alcotest.(check int) "4,000 fragments" 4_000
    (Link.fragments_for (Message.wire_size msg));
  Kernel_ipc.send w.kernels.(0) msg;
  ignore (Engine.run w.engine);
  let snd = sender_rel w and rcv = receiver_rel w in
  Alcotest.(check int) "delivered once" 1 !delivered;
  Alcotest.(check (list int))
    "acks, retransmissions, duplicates, checksum failures"
    [ 4870; 2689; 870; 517 ]
    [
      Reliable.acks_sent rcv;
      Reliable.retransmissions snd;
      Reliable.duplicates rcv;
      Reliable.checksum_failures rcv;
    ];
  Alcotest.(check int) "link bytes" 10_798_224 (Link.bytes_sent w.link)

let suite =
  ( "net",
    [
      Alcotest.test_case "link fragment math" `Quick test_link_fragment_math;
      Alcotest.test_case "link fragment edges" `Quick test_link_fragment_edges;
      Alcotest.test_case "fault plan: clean" `Quick test_fault_plan_clean;
      Alcotest.test_case "fault plan: certain loss" `Quick
        test_fault_plan_certain_loss;
      Alcotest.test_case "fault plan: corruption" `Quick
        test_fault_plan_corruption;
      Alcotest.test_case "fault plan: burst rate" `Quick
        test_fault_plan_burst_rate;
      Alcotest.test_case "fault plan: partition schedule" `Quick
        test_fault_plan_partition_schedule;
      Alcotest.test_case "link transmit timing" `Quick test_link_transmit_timing;
      Alcotest.test_case "link serializes" `Quick test_link_serializes_transfers;
      Alcotest.test_case "monitor accounting" `Quick test_monitor_accounting;
      QCheck_alcotest.to_alcotest prop_monitor_bins;
      Alcotest.test_case "registry homes" `Quick test_registry_homes;
      Alcotest.test_case "cross-host delivery" `Quick
        test_nms_cross_host_delivery;
      Alcotest.test_case "large message fragments" `Quick
        test_nms_large_message_fragments;
      Alcotest.test_case "iou caching" `Quick test_nms_iou_caching;
      Alcotest.test_case "NoIOUs respected" `Quick test_nms_no_ious_bit_respected;
      Alcotest.test_case "caching ablation switch" `Quick
        test_nms_caching_disabled_by_params;
      Alcotest.test_case "serves faults and death" `Quick
        test_nms_serves_cached_faults_and_death;
      Alcotest.test_case "caches again after fail_backing" `Quick
        test_nms_caches_again_after_fail_backing;
      Alcotest.test_case "ARQ: clean delivery" `Quick test_arq_clean_delivery;
      Alcotest.test_case "ARQ: loss recovery" `Quick test_arq_loss_recovery;
      Alcotest.test_case "ARQ: corruption recovery" `Quick
        test_arq_corruption_recovery;
      Alcotest.test_case "ARQ: reordering tolerated" `Quick
        test_arq_reordering_tolerated;
      Alcotest.test_case "ARQ: bounded retries give up" `Quick
        test_arq_give_up_on_partition;
      Alcotest.test_case "ARQ: give-up time" `Quick test_arq_give_up_time;
      Alcotest.test_case "ARQ: on iff a fault plan" `Quick
        test_arq_iff_fault_plan;
      Alcotest.test_case "ARQ: SACK selection pinned" `Quick test_arq_sack_pin;
    ] )
