open Accent_sim
open Accent_ipc

type params = {
  per_byte_ms : float;
  backing_lookup_ms : float;
  iou_caching : bool;
  flow_window : int;
  dedup : bool;
  dedup_capacity_pages : int;
}

(* Calibrated (see Accent_kernel.Cost_model and test/test_calibration.ml)
   so that one remote imaginary page fetch costs ~115 ms end-to-end (of
   which ~60 ms is NMS CPU and the rest kernel, link and backing-process
   wakeup latency) and bulk shipment sustains the ~14 KB/s the paper's
   pure-copy times imply (Table 4-5 Copy ÷ Table 4-1 Real). *)
let default_params =
  {
    per_byte_ms = 0.032;
    backing_lookup_ms = 38.;
    iou_caching = true;
    flow_window = 1;
    dedup = false;
    dedup_capacity_pages = 4096;
  }

(* The fixed terms of the same calibration. *)
let base_ms = 2.0
let per_chunk_ms = 0.8
let iou_cache_setup_ms = 100.
let cache_per_page_ms = 0.006
let stand_in_per_chunk_ms = 3.

type t = {
  engine : Engine.t;
  ids : Ids.t;
  host_id : int;
  kernel : Kernel_ipc.t;
  link : Link.t;
  registry : Net_registry.t;
  monitor : Transfer_monitor.t;
  params : params;
  cpu : Queue_server.t;
  cache : Content_store.t;
  mutable backer : Backing_server.t option;
  mutable failed_backers : Backing_server.t list;
  mutable handled : int;
  mutable cached_bytes : int;
  mutable rel : Reliable.t option;
  mutable give_up_handlers : (Message.t -> unit) list;
}

let host_id t = t.host_id

let chunk_count msg =
  match msg.Message.memory with
  | None -> 0
  | Some m -> Memory_object.chunk_count m

(* The IOU cache's backing server, created on the first message cached:
   allocating its port any earlier would shift every later id on the
   host.  [fail_backing] retires it to [failed_backers], whose counters
   stay in the accounting. *)
let backer t =
  match t.backer with
  | Some backer -> backer
  | None ->
      let backer =
        Backing_server.create t.engine ~ids:t.ids ~kernel:t.kernel
          ~registry:t.registry ~host_id:t.host_id ~store:t.cache
          ~service_ms:t.params.backing_lookup_ms
      in
      t.backer <- Some backer;
      backer

(* §2.4: retain the Data chunks of an outbound memory object, become their
   backer, and substitute IOUs.  One fresh segment covers the whole
   message's data; chunk offsets within the object address the segment. *)
let substitute_ious t msg =
  match msg.Message.memory with
  | Some memory
    when t.params.iou_caching && (not msg.Message.no_ious)
         && Memory_object.data_bytes memory > 0 ->
      let backer = backer t in
      let segment_id = Backing_server.new_segment backer in
      let memory =
        Memory_object.map_chunks memory ~f:(fun chunk ->
            match chunk.Memory_object.content with
            | Memory_object.Iou _ | Memory_object.Digest_refs _ -> chunk
            | Memory_object.Data run ->
                t.cached_bytes <-
                  t.cached_bytes
                  + (Accent_mem.Page_run.length run * Accent_mem.Page.size);
                {
                  chunk with
                  Memory_object.content =
                    Backing_server.bank backer ~segment_id
                      ~offset:chunk.Memory_object.range.Accent_mem.Vaddr.lo run;
                })
      in
      (Message.with_memory msg (Some memory), true)
  | _ -> (msg, false)

let iou_chunks msg =
  match msg.Message.memory with
  | None -> 0
  | Some m ->
      List.length
        (List.filter
           (fun c ->
             match c.Memory_object.content with
             | Memory_object.Iou _ -> true
             | Memory_object.Data _ | Memory_object.Digest_refs _ -> false)
           m)

(* NMS CPU for one fragment of [wire_bytes], either side.  The
   per-message terms ride on top: fragment 0 on the send side, the last
   fragment on the receive side ([receive_cost]). *)
let fragment_cost t wire_bytes =
  base_ms +. (t.params.per_byte_ms *. float_of_int wire_bytes)

let receive_cost t msg ~wire_bytes ~last =
  fragment_cost t wire_bytes
  +.
  if last then
    (per_chunk_ms *. float_of_int (chunk_count msg))
    +. (stand_in_per_chunk_ms *. float_of_int (iou_chunks msg))
  else 0.

(* A completed inbound message enters the local kernel.  With dedup on,
   imaginary read replies populate the content store on receipt first:
   each page is re-hashed and kept only if the bytes match their name
   (Content_store.insert_wire_run), so future digest-first transfers of
   the same content can elide it. *)
let deliver_local t msg =
  (if t.params.dedup then
     match msg.Message.payload with
     | Protocol.Imaginary_read_reply { page_data; _ } ->
         ignore (Content_store.insert_wire_run t.cache page_data)
     | _ -> ());
  Kernel_ipc.send t.kernel msg

(* Inbound: one fragment arrived off the wire.  Reassembly cost is charged
   per fragment; the per-message costs (stand-in creation for IOU chunks,
   chunk table processing) are charged with the last fragment, after which
   the whole message enters the local kernel. *)
let receive t (frag : Net_registry.fragment) =
  let msg = frag.Net_registry.msg in
  let last = frag.Net_registry.index = frag.Net_registry.count - 1 in
  if last then t.handled <- t.handled + 1;
  let cost =
    receive_cost t msg ~wire_bytes:frag.Net_registry.wire_bytes ~last
  in
  Queue_server.submit t.cpu ~service_time:(Time.ms cost) (fun () ->
      if last then deliver_local t msg;
      frag.Net_registry.ack ())

(* Outbound: the kernel had no local receiver; route over the network.
   The message is cut into link-packet-sized fragments and each is pushed
   through this NMS's CPU, the medium, and the peer NMS's CPU in turn, so
   large transfers occupy the wire for their true duration instead of
   appearing as an instantaneous burst after one big CPU charge. *)
let forward t msg =
  match Net_registry.port_home t.registry msg.Message.dest with
  | None ->
      Logs.warn (fun m ->
          m "NMS%d: no home for %a; dropping" t.host_id Port.pp
            msg.Message.dest)
  | Some dest_host when dest_host = t.host_id ->
      Logs.warn (fun m ->
          m "NMS%d: %a homed here but unbound; dropping" t.host_id Port.pp
            msg.Message.dest)
  | Some dest_host ->
      t.handled <- t.handled + 1;
      let bytes_before = t.cached_bytes in
      let msg, cached = substitute_ious t msg in
      let setup =
        if cached then
          iou_cache_setup_ms
          +. cache_per_page_ms
             *. float_of_int
                  ((t.cached_bytes - bytes_before) / Accent_mem.Page.size)
        else 0.
      in
      Transfer_monitor.note_message t.monitor ~category:msg.Message.category;
      let wire = Message.wire_size msg in
      match t.rel with
      | Some rel ->
          (* reliable transport: sequencing, retransmission and real acks
             live in [Reliable]; we only contribute the cost model *)
          Reliable.send rel ~dst:dest_host ~msg ~wire_bytes:wire
            ~first_fragment_extra_ms:
              (setup +. (per_chunk_ms *. float_of_int (chunk_count msg)))
      | None ->
          let latency_ms = (Link.params_of t.link).Link.latency_ms in
          let payload = Link.fragment_bytes in
          let count = Link.fragments_for wire in
          let window = max 1 t.params.flow_window in
          (* sliding window: up to [window] fragments may be unacknowledged.
             window = 1 is classic stop-and-wait. *)
          let next = ref 0 in
          let rec send_fragment () =
            if !next < count then begin
              let index = !next in
              next := index + 1;
              let wire_bytes = min payload (wire - (index * payload)) in
              let cost =
                fragment_cost t wire_bytes
                +.
                if index = 0 then
                  setup
                  +. (per_chunk_ms *. float_of_int (chunk_count msg))
                else 0.
              in
              Queue_server.submit t.cpu ~service_time:(Time.ms cost) (fun () ->
                  (* without ARQ the link carries no fault plan, so every
                     fragment's fate is [Delivered] *)
                  Link.transmit_frag t.link ~src:t.host_id ~dst:dest_host
                    ~bytes:wire_bytes ~category:msg.Message.category
                    (fun _fate ->
                      let ack () =
                        (* the acknowledgement rides back after one link
                           latency, releasing the next window slot *)
                        ignore
                          (Engine.schedule t.engine
                             ~delay:(Time.ms latency_ms)
                             send_fragment)
                      in
                      Net_registry.deliver_to t.registry ~host_id:dest_host
                        { Net_registry.msg; index; count; wire_bytes; ack }))
            end
          in
          for _ = 1 to window do
            send_fragment ()
          done

let create engine ~ids ~host_id ~kernel ~link ~registry ~monitor ~params =
  let t =
    {
      engine;
      ids;
      host_id;
      kernel;
      link;
      registry;
      monitor;
      params;
      cpu = Queue_server.create engine ~name:(Printf.sprintf "nms%d" host_id);
      cache =
        Content_store.create ~dedup:params.dedup
          ~capacity_pages:params.dedup_capacity_pages ();
      backer = None;
      failed_backers = [];
      handled = 0;
      cached_bytes = 0;
      rel = None;
      give_up_handlers = [];
    }
  in
  Kernel_ipc.set_forwarder kernel (forward t);
  Net_registry.register_host registry ~host_id ~deliver:(receive t);
  (* an unreliable wire needs the reliable transport to be survivable, so
     a link that carries any fault plan switches the NMS to ARQ.  A clean
     plan still enables it: that is how the acknowledgement overhead at
     zero loss is measured. *)
  (match Link.fault_plan link with
  | None -> ()
  | Some _ ->
      t.rel <-
        Some
          (Reliable.create engine ~host_id ~link ~registry
             ~cpu:(fun ~service_ms k ->
               Queue_server.submit t.cpu ~service_time:(Time.ms service_ms) k)
             ~fragment_cost_ms:(fun ~bytes -> fragment_cost t bytes)
             ~on_deliver:(fun ~msg ~wire_bytes ~completes ->
               if completes then t.handled <- t.handled + 1;
               let cost = receive_cost t msg ~wire_bytes ~last:completes in
               Queue_server.submit t.cpu ~service_time:(Time.ms cost)
                 (fun () -> if completes then deliver_local t msg))
             ~on_give_up:(fun ~msg ~dst:_ ->
               Logs.warn (fun m ->
                   m "NMS%d: transport gave up on %s message to %a" t.host_id
                     (Message.category_name msg.Message.category)
                     Port.pp msg.Message.dest);
               List.iter (fun h -> h msg) (List.rev t.give_up_handlers))));
  t

let busy_time t = Queue_server.busy_time t.cpu
let messages_handled t = t.handled
let reliability t = t.rel
let content_store t = t.cache
let dedup_enabled t = t.params.dedup

let on_transport_give_up t handler =
  t.give_up_handlers <- handler :: t.give_up_handlers

let transport_give_ups t = Option.fold ~none:0 ~some:Reliable.give_ups t.rel
let bytes_cached t = t.cached_bytes
let backers t = Option.to_list t.backer @ t.failed_backers

let segments_backed t =
  Option.fold ~none:0 ~some:Backing_server.segments_alive t.backer

let faults_served t =
  List.fold_left (fun n b -> n + Backing_server.faults_served b) 0 (backers t)

let pages_served t =
  List.fold_left (fun n b -> n + Backing_server.pages_served b) 0 (backers t)

let reset_accounting t =
  Queue_server.reset_accounting t.cpu;
  t.handled <- 0;
  t.cached_bytes <- 0;
  List.iter Backing_server.reset_accounting (backers t);
  Option.iter Reliable.reset_accounting t.rel

(* The crashed backer's port stops being a home, so requests for its
   segments are dropped at the requester's NMS. *)
let fail_backing t =
  Option.iter
    (fun backer ->
      Backing_server.fail backer;
      Net_registry.forget_port t.registry (Backing_server.port backer);
      t.failed_backers <- backer :: t.failed_backers;
      t.backer <- None)
    t.backer
