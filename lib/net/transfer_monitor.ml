open Accent_ipc

type slot = {
  mutable bytes : int;
  mutable messages : int;
  mutable bins : int array;
      (* bytes per virtual second, with spare capacity past [seconds] *)
  mutable seconds : int; (* bins in use: through the last second recorded *)
}

type t = {
  control : slot;
  bulk : slot;
  fault : slot;
  retransmit : slot;
  ack : slot;
}

let fresh_slot () = { bytes = 0; messages = 0; bins = [||]; seconds = 0 }

let create () =
  {
    control = fresh_slot ();
    bulk = fresh_slot ();
    fault = fresh_slot ();
    retransmit = fresh_slot ();
    ack = fresh_slot ();
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
  (* times are in ms *)
  let i = int_of_float (Float.floor (time /. 1000.)) in
  if i >= Array.length s.bins then begin
    let grown = Array.make (max (i + 1) (2 * Array.length s.bins)) 0 in
    Array.blit s.bins 0 grown 0 s.seconds;
    s.bins <- grown
  end;
  s.bins.(i) <- s.bins.(i) + bytes;
  if i >= s.seconds then s.seconds <- i + 1

let note_message t ~category =
  let s = slot t category in
  s.messages <- s.messages + 1

let bytes_of t category = (slot t category).bytes
let bytes_total t = List.fold_left (fun acc s -> acc + s.bytes) 0 (all_slots t)

let goodput_bytes t = t.control.bytes + t.bulk.bytes + t.fault.bytes
let overhead_bytes t = t.retransmit.bytes + t.ack.bytes

let messages_total t =
  List.fold_left (fun acc s -> acc + s.messages) 0 (all_slots t)

let bins_of t category =
  let s = slot t category in
  Array.sub s.bins 0 s.seconds

let reset t =
  List.iter
    (fun s ->
      s.bytes <- 0;
      s.messages <- 0;
      Array.fill s.bins 0 s.seconds 0;
      s.seconds <- 0)
    (all_slots t)
