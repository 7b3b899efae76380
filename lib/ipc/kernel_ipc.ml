open Accent_sim

(* Calibrated so that a small control message costs ~1.2 ms of kernel time
   and mapping a whole excised address space costs milliseconds, not the
   seconds a physical copy would. *)
let local_base_ms = 1.2
let copy_threshold = 2048
let copy_per_byte_ms = 0.0006
let map_per_page_ms = 0.01

type t = {
  engine : Engine.t;
  cpu : Queue_server.t;
  handlers : (Message.t -> unit) Port.Table.t;
  mutable forwarder : (Message.t -> unit) option;
  mutable local : int;
  mutable forwarded : int;
}

let create engine ~cpu =
  {
    engine;
    cpu;
    handlers = Port.Table.create 64;
    forwarder = None;
    local = 0;
    forwarded = 0;
  }

let bind t port handler = Port.Table.replace t.handlers port handler
let unbind t port = Port.Table.remove t.handlers port
let has_local_receiver t port = Port.Table.mem t.handlers port
let set_forwarder t f = t.forwarder <- Some f

let handling_cost msg =
  (* IOU chunks carry no local pages until touched, so the kernel's
     copy/map work scales with the physically-present bytes (plus
     descriptors), not with the promised ranges. *)
  let size = Message.wire_size msg in
  let data_cost =
    if size <= copy_threshold then
      (* Double-copy semantics: in and out of the kernel. *)
      2. *. float_of_int size *. copy_per_byte_ms
    else
      let pages = (size + Accent_mem.Page.size - 1) / Accent_mem.Page.size in
      float_of_int pages *. map_per_page_ms
  in
  Time.ms (local_base_ms +. data_cost)

let send t msg =
  let cost = handling_cost msg in
  Queue_server.submit t.cpu ~service_time:cost (fun () ->
      match Port.Table.find_opt t.handlers msg.Message.dest with
      | Some handler ->
          t.local <- t.local + 1;
          handler msg
      | None -> (
          match t.forwarder with
          | Some forward ->
              t.forwarded <- t.forwarded + 1;
              forward msg
          | None ->
              Logs.warn (fun m ->
                  m "dropping message for unbound %a at t=%a" Port.pp
                    msg.Message.dest Time.pp (Engine.now t.engine))))

let delivered_locally t = t.local
let forwarded t = t.forwarded
