open Accent_sim
open Accent_ipc
open Accent_kernel

(* Segment contents live in the host's shared Content_store (the same
   instance the NetMsgServer caches into), so a page value banked here
   and cached there is stored once.  The server keeps only the set of
   segment ids it owns: the store is shared, and [fail] must not take the
   NMS's cached segments down with ours. *)
type t = {
  host : Host.t;
  name : string;
  port : Port.id;
  store : Accent_net.Content_store.t;
  owned : (int, unit) Hashtbl.t;
  mutable faults_served : int;
  mutable pages_served : int;
  mutable deaths : int;
}

(* Wakeup plus lookup per request served, calibrated so a remote fault
   through an application backer costs the same ~115 ms as one through
   the NetMsgServer cache. *)
let service_ms = 50.

let handler t msg =
  match msg.Message.payload with
  | Protocol.Imaginary_read_request { segment_id; offset; pages } -> (
      match msg.Message.reply_to with
      | None ->
          Logs.warn (fun m -> m "%s: read request without reply port" t.name)
      | Some reply_port ->
          ignore
            (Engine.schedule (Host.engine t.host)
               ~delay:(Time.ms service_ms) (fun () ->
                 let page_data =
                   Accent_net.Content_store.read_run t.store ~segment_id
                     ~offset ~pages
                 in
                 t.faults_served <- t.faults_served + 1;
                 t.pages_served <- t.pages_served + List.length page_data;
                 Kernel_ipc.send (Host.kernel t.host)
                   (Protocol.read_reply ~ids:(Host.ids t.host) ~dest:reply_port
                      ~segment_id ~offset ~page_data))))
  | Protocol.Imaginary_segment_death { segment_id } ->
      t.deaths <- t.deaths + 1;
      Hashtbl.remove t.owned segment_id;
      Accent_net.Content_store.drop_segment t.store ~segment_id
  | _ -> Logs.warn (fun m -> m "%s: unexpected message" t.name)

let create host ~name =
  let port = Host.new_port host in
  let t =
    {
      host;
      name;
      port;
      store = Accent_net.Netmsgserver.content_store (Host.nms host);
      owned = Hashtbl.create 16;
      faults_served = 0;
      pages_served = 0;
      deaths = 0;
    }
  in
  Kernel_ipc.bind (Host.kernel host) port (handler t);
  t

let port t = t.port
let name t = t.name
let store t = t.store

let new_segment t =
  let segment_id = Accent_sim.Ids.next (Host.ids t.host) in
  Hashtbl.replace t.owned segment_id ();
  segment_id

let own t segment_id = Hashtbl.replace t.owned segment_id ()

let put_bytes t ~segment_id ~offset data =
  own t segment_id;
  Accent_net.Content_store.put_bytes t.store ~segment_id ~offset data

let put_page t ~segment_id ~offset value =
  own t segment_id;
  Accent_net.Content_store.put_page t.store ~segment_id ~offset value

let put_extent t ~segment_id ~offset values =
  own t segment_id;
  Accent_net.Content_store.put_extent t.store ~segment_id ~offset values

let segment_bytes t ~segment_id =
  Accent_net.Content_store.segment_bytes t.store ~segment_id

let map_into t dest_host space ~at ~segment_id ~offset ~len =
  Accent_mem.Address_space.map_imaginary space
    (Accent_mem.Vaddr.of_len at len)
    ~segment_id ~offset;
  let pager = Host.pager dest_host in
  Pager.register_segment pager
    ~space_id:(Accent_mem.Address_space.id space)
    ~segment_id ~backing_port:t.port;
  Pager.register_segment_range pager ~segment_id ~offset ~len ~vaddr:at

let fail t =
  Hashtbl.iter
    (fun segment_id () ->
      Accent_net.Content_store.drop_segment t.store ~segment_id)
    t.owned;
  Hashtbl.reset t.owned;
  Kernel_ipc.unbind (Host.kernel t.host) t.port

let faults_served t = t.faults_served
let pages_served t = t.pages_served

let segments_alive t =
  Hashtbl.fold
    (fun segment_id () acc ->
      if Accent_net.Content_store.has_segment t.store ~segment_id then acc + 1
      else acc)
    t.owned 0

let deaths_received t = t.deaths
