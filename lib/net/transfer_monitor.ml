open Accent_ipc

type slot = {
  mutable bytes : int;
  mutable messages : int;
  mutable series : Accent_util.Series.t;
}

type t = {
  control : slot;
  bulk : slot;
  fault : slot;
  retransmit : slot;
  ack : slot;
  (* The per-category time series costs a retained cons per transmitted
     message — fine for a single-migration figure, O(messages) retention
     for a datacenter churn run, which turns it off. *)
  mutable record_series : bool;
}

let fresh_slot () =
  { bytes = 0; messages = 0; series = Accent_util.Series.create () }

let create () =
  {
    control = fresh_slot ();
    bulk = fresh_slot ();
    fault = fresh_slot ();
    retransmit = fresh_slot ();
    ack = fresh_slot ();
    record_series = true;
  }

let slot t (category : Message.category) =
  match category with
  | Control -> t.control
  | Bulk -> t.bulk
  | Fault -> t.fault
  | Retransmit -> t.retransmit
  | Ack -> t.ack

let all_slots t = [ t.control; t.bulk; t.fault; t.retransmit; t.ack ]

let record t ~time ~category ~bytes =
  let s = slot t category in
  s.bytes <- s.bytes + bytes;
  if t.record_series then
    Accent_util.Series.add s.series ~time ~value:(float_of_int bytes)

let set_record_series t on = t.record_series <- on

let note_message t ~category =
  let s = slot t category in
  s.messages <- s.messages + 1

let bytes_of t category = (slot t category).bytes
let bytes_total t = List.fold_left (fun acc s -> acc + s.bytes) 0 (all_slots t)

let goodput_bytes t = t.control.bytes + t.bulk.bytes + t.fault.bytes
let overhead_bytes t = t.retransmit.bytes + t.ack.bytes

let messages_total t =
  List.fold_left (fun acc s -> acc + s.messages) 0 (all_slots t)

let series_of t category = (slot t category).series

let reset t =
  List.iter
    (fun s ->
      s.bytes <- 0;
      s.messages <- 0;
      s.series <- Accent_util.Series.create ())
    (all_slots t)
