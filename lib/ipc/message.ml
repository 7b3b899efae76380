type payload = ..
type payload += Ping of int
type category = Control | Bulk | Fault | Retransmit | Ack

let category_name = function
  | Control -> "control"
  | Bulk -> "bulk"
  | Fault -> "fault"
  | Retransmit -> "retransmit"
  | Ack -> "ack"

type t = {
  id : int;
  dest : Port.id;
  reply_to : Port.id option;
  payload : payload;
  inline_bytes : int;
  memory : Memory_object.t option;
  rights : Port.id list;
  no_ious : bool;
  category : category;
}

let make ~ids ~dest ?reply_to ?(inline_bytes = 64) ?memory ?(rights = [])
    ?(no_ious = false) ?(category = Control) payload =
  Option.iter Memory_object.validate memory;
  {
    id = Accent_sim.Ids.next ids;
    dest;
    reply_to;
    payload;
    inline_bytes;
    memory;
    rights;
    no_ious;
    category;
  }

let header_bytes = 32
let right_bytes = 8 (* wire overhead per transferred port right *)

let local_size t =
  header_bytes + t.inline_bytes
  + (right_bytes * List.length t.rights)
  + match t.memory with None -> 0 | Some m -> Memory_object.total_bytes m

let wire_size t =
  header_bytes + t.inline_bytes
  + (right_bytes * List.length t.rights)
  +
  match t.memory with
  | None -> 0
  | Some m ->
      Memory_object.descriptor_bytes m
      + Memory_object.data_bytes m
      + Memory_object.digest_bytes m

let with_memory t memory =
  Option.iter Memory_object.validate memory;
  { t with memory }

let pp ppf t =
  Format.fprintf ppf "msg#%d -> %a (inline %d B%s%s)" t.id Port.pp t.dest
    t.inline_bytes
    (match t.memory with
    | None -> ""
    | Some m ->
        Printf.sprintf ", memory %d B (%d data / %d iou)"
          (Memory_object.total_bytes m)
          (Memory_object.data_bytes m)
          (Memory_object.iou_bytes m))
    (if t.no_ious then ", NoIOUs" else "")
