(* Edge cases across the stack: protocol misuse, fragment boundaries,
   multi-space eviction dispatch, insertion failure modes, out-of-order
   context arrival, and empty/degenerate inputs. *)
open Accent_sim
open Accent_mem
open Accent_ipc
open Accent_net
open Accent_kernel
open Accent_core

let world () = World.create ~n_hosts:2 ()

(* --- degenerate traces and processes --- *)

let test_empty_trace_process () =
  let w = world () in
  let h = World.host w 0 in
  let space = Host.new_space h in
  Address_space.validate_zero space (Vaddr.of_len 0 512);
  let proc = Host.spawn h ~name:"empty" ~trace:(Trace.of_steps []) ~space () in
  let completed = ref false in
  proc.Proc.on_complete <- Some (fun _ -> completed := true);
  Proc_runner.start h proc;
  ignore (World.run w);
  Alcotest.(check bool) "completes immediately" true !completed;
  Alcotest.(check (option (float 1e-9))) "zero execution time" (Some 0.)
    (Option.map Time.to_ms (Proc.remote_execution_time proc))

let test_migrate_empty_trace_process () =
  let w = world () in
  let h = World.host w 0 in
  let space = Host.new_space h in
  Address_space.install_bytes space ~addr:0 (Bytes.make (4 * 512) 'i')
    ~resident:true;
  let proc = Host.spawn h ~name:"idle" ~trace:(Trace.of_steps []) ~space () in
  let report = World.migrate_and_run w ~proc ~src:0 ~dst:1
      ~strategy:(Strategy.pure_iou ()) in
  Alcotest.(check bool) "completed" true
    (report.Report.completed_at <> None);
  Alcotest.(check int) "no faults: nothing touched" 0
    report.Report.dest_faults_imag

(* --- RIMAS / AMap consistency failures --- *)

let test_insert_rejects_short_rimas () =
  let w = world () in
  let world0 = World.host w 0 and world1 = World.host w 1 in
  let space = Host.new_space world0 in
  Address_space.install_bytes space ~addr:0 (Bytes.make (4 * 512) 'x')
    ~resident:true;
  let proc = Host.spawn world0 ~name:"bad" ~trace:(Trace.of_steps []) ~space () in
  let failed = ref false in
  Excise.excise world0 proc ~k:(fun e ->
      (* drop the RIMAS content entirely *)
      try Insert.insert world1 ~core:e.Excise.core ~rimas:[] ~k:(fun _ -> ())
      with Failure _ -> failed := true);
  (try ignore (World.run w) with Failure _ -> failed := true);
  Alcotest.(check bool) "insertion rejects missing content" true !failed

(* --- fragment boundary sizes --- *)

let test_fragment_boundary_sizes () =
  (* messages around the 1536-byte packet size must all arrive intact *)
  let payload = Accent_net.Link.fragment_bytes in
  List.iter
    (fun extra ->
      let w = world () in
      let h0 = World.host w 0 and h1 = World.host w 1 in
      let port = Host.new_port h1 in
      let got = ref 0 in
      Kernel_ipc.bind (Host.kernel h1) port (fun _ -> incr got);
      let inline_bytes = payload + extra - Message.header_bytes in
      Kernel_ipc.send (Host.kernel h0)
        (Message.make ~ids:(Host.ids h0) ~dest:port ~inline_bytes
           (Message.Ping extra));
      ignore (World.run w);
      Alcotest.(check int)
        (Printf.sprintf "size payload%+d delivered once" extra)
        1 !got)
    [ -1; 0; 1; 700 ]

(* --- eviction dispatch across several spaces --- *)

let test_eviction_multi_space_dispatch () =
  let costs =
    { Cost_model.default with Cost_model.frames_per_host = 8 }
  in
  let w = World.create ~costs ~n_hosts:1 () in
  let h = World.host w 0 in
  let mk () =
    let space = Host.new_space h in
    for i = 0 to 5 do
      Address_space.install_bytes space
        ~addr:(i * 512)
        (Bytes.make 512 (Char.chr (Char.code 'a' + i)))
        ~resident:true
    done;
    space
  in
  let a = mk () in
  let b = mk () (* 12 resident installs into 8 frames: evictions *) in
  Alcotest.(check bool) "pool saturated" true
    (Phys_mem.in_use (Host.mem h) = 8);
  (* both spaces still see all their data, wherever it now lives *)
  List.iter
    (fun space ->
      for i = 0 to 5 do
        match Address_space.page_data space i with
        | Some page ->
            Alcotest.(check char) "content survived eviction"
              (Char.chr (Char.code 'a' + i))
              (Bytes.get page 0)
        | None -> Alcotest.fail "page lost in eviction"
      done)
    [ a; b ]

(* --- protocol misuse --- *)

let test_read_request_without_reply_port_is_dropped () =
  let w = world () in
  let h0 = World.host w 0 and h1 = World.host w 1 in
  let backing = Test_helpers.new_backer h1 in
  let segment_id = Backing_server.new_segment backing in
  Backing_server.put_bytes backing ~segment_id ~offset:0 (Bytes.make 512 'x');
  (* a raw request with no reply_to: server must log-and-drop, not die *)
  Kernel_ipc.send (Host.kernel h0)
    (Message.make ~ids:(Host.ids h0)
       ~dest:(Backing_server.port backing)
       (Protocol.Imaginary_read_request { segment_id; offset = 0; pages = 1 }));
  ignore (World.run w);
  Alcotest.(check int) "nothing served" 0 (Backing_server.faults_served backing)

(* A request whose range is empty, negative, unaligned or overflowing is
   logged and dropped like one without a reply port: nothing is served,
   nothing escapes the simulation, and a well-formed request after them
   is still answered. *)
let test_malformed_read_request_is_dropped () =
  let w = world () in
  let h0 = World.host w 0 and h1 = World.host w 1 in
  let backing = Test_helpers.new_backer h1 in
  let segment_id = Backing_server.new_segment backing in
  Backing_server.put_bytes backing ~segment_id ~offset:0 (Bytes.make 1024 'x');
  let replies = ref [] in
  let reply_to = Host.new_port h0 in
  Kernel_ipc.bind (Host.kernel h0) reply_to (fun msg ->
      match msg.Message.payload with
      | Protocol.Imaginary_read_reply r ->
          replies := Page_run.length r.page_data :: !replies
      | _ -> ());
  let request ~offset ~pages =
    Kernel_ipc.send (Host.kernel h0)
      (Protocol.read_request ~ids:(Host.ids h0)
         ~dest:(Backing_server.port backing) ~reply_to ~segment_id ~offset
         ~pages)
  in
  List.iter
    (fun (offset, pages) -> request ~offset ~pages)
    [
      (0, 0);
      (0, -1);
      (-512, 1);
      (100, 1);
      (512, max_int / Page.size);
    ];
  ignore (World.run w);
  Alcotest.(check int) "nothing served" 0
    (Backing_server.faults_served backing);
  Alcotest.(check (list int)) "no reply" [] !replies;
  request ~offset:512 ~pages:4;
  ignore (World.run w);
  Alcotest.(check (list int)) "a well-formed request still served" [ 1 ]
    !replies

let test_death_idempotent () =
  let w = world () in
  let h1 = World.host w 1 in
  let backing = Test_helpers.new_backer h1 in
  let segment_id = Backing_server.new_segment backing in
  Backing_server.put_bytes backing ~segment_id ~offset:0 (Bytes.make 512 'x');
  for _ = 1 to 3 do
    Kernel_ipc.send (Host.kernel h1)
      (Protocol.segment_death ~ids:(Host.ids h1)
         ~dest:(Backing_server.port backing) ~segment_id)
  done;
  ignore (World.run w);
  Alcotest.(check int) "three deaths absorbed" 3
    (Backing_server.deaths_received backing);
  Alcotest.(check int) "segment gone once" 0
    (Backing_server.segments_alive backing)

(* Every backer on a host shares the host's content store, so a death
   notice must retire only a segment the receiving backer owns.  One sent
   to the manager's backer naming a segment the NMS cache backs must
   leave the cached copy alone: a later fault on it is still served. *)
let test_misdirected_death_spares_the_nms_cache () =
  let w = world () in
  let h0 = World.host w 0 and h1 = World.host w 1 in
  let on_h1 handler =
    let port = Host.new_port h1 in
    Kernel_ipc.bind (Host.kernel h1) port handler;
    port
  in
  let received = ref None in
  let dest = on_h1 (fun msg -> received := msg.Message.memory) in
  Kernel_ipc.send (Host.kernel h0)
    (Message.make ~ids:(Host.ids h0) ~dest ~category:Message.Bulk
       ~memory:
         [
           {
             Memory_object.range = Vaddr.of_len 0 512;
             content =
               Memory_object.Data
                 (Page_run.of_array
                    (Page.values_of_bytes (Bytes.make 512 'n')));
           };
         ]
       (Message.Ping 0));
  ignore (World.run w);
  let segment_id, backing_port =
    match !received with
    | Some
        [
          {
            Memory_object.content =
              Memory_object.Iou { segment_id; backing_port; _ };
            _;
          };
        ] ->
        (segment_id, backing_port)
    | _ -> Alcotest.fail "expected the NMS to cache the page"
  in
  let manager_backer = Migration_manager.backing (World.manager w 0) in
  Kernel_ipc.send (Host.kernel h1)
    (Protocol.segment_death ~ids:(Host.ids h1)
       ~dest:(Backing_server.port manager_backer) ~segment_id);
  ignore (World.run w);
  Alcotest.(check int) "NMS segment survives" 1
    (Netmsgserver.segments_backed (Host.nms h0));
  let reply = ref [] in
  let reply_to =
    on_h1 (fun msg ->
        match msg.Message.payload with
        | Protocol.Imaginary_read_reply r ->
            reply := Array.to_list (Page_run.to_array r.page_data)
        | _ -> ())
  in
  Kernel_ipc.send (Host.kernel h1)
    (Protocol.read_request ~ids:(Host.ids h1) ~dest:backing_port ~reply_to
       ~segment_id ~offset:0 ~pages:1);
  ignore (World.run w);
  match !reply with
  | [ page ] ->
      Alcotest.(check char) "fault served from the cache" 'n'
        (Bytes.get (Page.to_bytes page) 0)
  | pages ->
      Alcotest.failf "expected one page, got %d" (List.length pages)

let test_unknown_segment_read_returns_empty_and_faulter_fails () =
  let w = world () in
  let h0 = World.host w 0 and h1 = World.host w 1 in
  let backing = Test_helpers.new_backer h1 in
  (* map a segment the backer was never given data for *)
  let space = Host.new_space h0 in
  Test_helpers.map_segment h0 backing space ~at:0 ~segment_id:4242 ~offset:0
    ~len:512;
  let proc = Host.spawn h0 ~name:"p" ~trace:(Trace.of_steps []) ~space () in
  Pager.reference (Host.pager h0) proc 0 ~k:(fun () -> ());
  ignore (World.run w);
  (* an empty reply means the data is gone: the faulter dies cleanly *)
  Alcotest.(check bool) "faulter killed" true proc.Proc.failed;
  Alcotest.(check int) "recorded as a lost fault" 1
    (Pager.fault_timeouts (Host.pager h0))

(* --- MigrationManager context arrival order --- *)

let test_rimas_before_core_insertion () =
  (* force the race: under pure IOU the RIMAS is one fragment while the
     Core spans several, so RIMAS systematically lands first; the
     migration must still complete (regression for the ordering bug). *)
  let result =
    Accent_experiments.Trial.run ~spec:Test_helpers.small_spec
      ~strategy:(Strategy.pure_iou ()) ()
  in
  let r = result.Accent_experiments.Trial.report in
  Alcotest.(check bool) "rimas delivered before core" true
    (Option.get r.Report.rimas_delivered_at
    <= Option.get r.Report.core_delivered_at);
  Alcotest.(check bool) "completed anyway" true (r.Report.completed_at <> None)

(* --- link contention between concurrent migrations --- *)

let test_two_concurrent_migrations_share_the_link () =
  let w = World.create ~n_hosts:2 () in
  let h0 = World.host w 0 in
  let spec i =
    {
      Test_helpers.small_spec with
      Accent_workloads.Spec.name = Printf.sprintf "c%d" i;
      base_addr = 0x40000 + (i * 4 * 1024 * 1024);
    }
  in
  let p1 = Accent_workloads.Spec.build h0 (spec 1) in
  let p2 = Accent_workloads.Spec.build h0 (spec 2) in
  let done_count = ref 0 in
  let migrate proc =
    ignore
      (Migration_manager.migrate (World.manager w 0) ~proc
         ~dest:(Migration_manager.port (World.manager w 1))
         ~strategy:(Strategy.pure_iou ())
         ~on_complete:(fun _ _ -> incr done_count)
         ())
  in
  migrate p1;
  migrate p2;
  ignore (World.run w);
  Alcotest.(check int) "both completed despite sharing the link" 2 !done_count

let suite =
  ( "edge_cases",
    [
      Alcotest.test_case "empty trace process" `Quick test_empty_trace_process;
      Alcotest.test_case "migrate idle process" `Quick
        test_migrate_empty_trace_process;
      Alcotest.test_case "insert rejects short RIMAS" `Quick
        test_insert_rejects_short_rimas;
      Alcotest.test_case "fragment boundary sizes" `Quick
        test_fragment_boundary_sizes;
      Alcotest.test_case "multi-space eviction dispatch" `Quick
        test_eviction_multi_space_dispatch;
      Alcotest.test_case "request without reply port" `Quick
        test_read_request_without_reply_port_is_dropped;
      Alcotest.test_case "malformed read request is dropped" `Quick
        test_malformed_read_request_is_dropped;
      Alcotest.test_case "death idempotent" `Quick test_death_idempotent;
      Alcotest.test_case "misdirected death spares the NMS cache" `Quick
        test_misdirected_death_spares_the_nms_cache;
      Alcotest.test_case "unknown segment fails loudly" `Quick
        test_unknown_segment_read_returns_empty_and_faulter_fails;
      Alcotest.test_case "RIMAS-before-Core race" `Quick
        test_rimas_before_core_insertion;
      Alcotest.test_case "concurrent migrations" `Quick
        test_two_concurrent_migrations_share_the_link;
    ] )
