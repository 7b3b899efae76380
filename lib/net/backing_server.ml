open Accent_sim
open Accent_ipc

type t = {
  engine : Engine.t;
  ids : Ids.t;
  kernel : Kernel_ipc.t;
  store : Content_store.t;
  port : Port.id;
  service_ms : float;
  owned : (int, unit) Hashtbl.t;
  mutable faults_served : int;
  mutable pages_served : int;
  mutable deaths : int;
}

(* A request is answerable when its range is non-empty, starts at a
   non-negative page-aligned offset, and ends without overflowing. *)
let well_formed ~offset ~pages =
  pages >= 1 && offset >= 0
  && offset mod Accent_mem.Page.size = 0
  && pages <= (max_int - offset) / Accent_mem.Page.size

let serve t msg ~segment_id ~offset ~pages =
  match msg.Message.reply_to with
  | None ->
      Logs.warn (fun m ->
          m "backer %a: read request without reply port" Port.pp t.port)
  | Some _ when not (well_formed ~offset ~pages) ->
      Logs.warn (fun m ->
          m "backer %a: read request for %d pages at offset %d dropped"
            Port.pp t.port pages offset)
  | Some reply_port ->
      ignore
        (Engine.schedule t.engine ~delay:(Time.ms t.service_ms) (fun () ->
             let page_data =
               Content_store.read_run t.store ~segment_id ~offset ~pages
             in
             t.faults_served <- t.faults_served + 1;
             t.pages_served <-
               t.pages_served + Accent_mem.Page_run.length page_data;
             Kernel_ipc.send t.kernel
               (Protocol.read_reply ~ids:t.ids ~dest:reply_port ~segment_id
                  ~offset ~page_data)))

(* The store is shared by every backer on the host, so a death notice
   may only retire a segment this server owns: a misdirected one must
   not destroy another backer's data. *)
let retire t segment_id =
  t.deaths <- t.deaths + 1;
  if Hashtbl.mem t.owned segment_id then begin
    Hashtbl.remove t.owned segment_id;
    Content_store.drop_segment t.store ~segment_id
  end
  else
    Logs.warn (fun m ->
        m "backer %a: death notice for segment %d it does not own" Port.pp
          t.port segment_id)

let handler t msg =
  match msg.Message.payload with
  | Protocol.Imaginary_read_request { segment_id; offset; pages } ->
      serve t msg ~segment_id ~offset ~pages
  | Protocol.Imaginary_segment_death { segment_id } -> retire t segment_id
  | _ -> Logs.warn (fun m -> m "backer %a: unexpected message" Port.pp t.port)

let create engine ~ids ~kernel ~registry ~host_id ~store ~service_ms =
  let port = Port.fresh ids in
  Net_registry.set_port_home registry port ~host_id;
  let t =
    {
      engine;
      ids;
      kernel;
      store;
      port;
      service_ms;
      owned = Hashtbl.create 16;
      faults_served = 0;
      pages_served = 0;
      deaths = 0;
    }
  in
  Kernel_ipc.bind kernel port (handler t);
  t

let port t = t.port
let store t = t.store

let new_segment t =
  let segment_id = Ids.next t.ids in
  Hashtbl.replace t.owned segment_id ();
  segment_id

let bank t ~segment_id ~offset run =
  Content_store.put_extent t.store ~segment_id ~offset run;
  Memory_object.Iou { segment_id; backing_port = t.port; offset }

let put_bytes t ~segment_id ~offset data =
  Content_store.put_bytes t.store ~segment_id ~offset data

let fail t =
  Hashtbl.iter
    (fun segment_id () -> Content_store.drop_segment t.store ~segment_id)
    t.owned;
  Hashtbl.reset t.owned;
  Kernel_ipc.unbind t.kernel t.port

let faults_served t = t.faults_served
let pages_served t = t.pages_served

let segments_alive t =
  Hashtbl.fold
    (fun segment_id () acc ->
      if Content_store.has_segment t.store ~segment_id then acc + 1 else acc)
    t.owned 0

let deaths_received t = t.deaths

let reset_accounting t =
  t.faults_served <- 0;
  t.pages_served <- 0
