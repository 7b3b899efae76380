open Accent_sim
open Accent_ipc
module Int_tbl = Accent_util.Int_tbl

let window = 8
let ack_bytes = 32
let initial_rto_ms = 25.
let rto_backoff = 2.
let max_rto_ms = 1600.
let max_retries = 8

(* Order-sensitive fold of the per-page digests of the message's
   physically-present Data chunks.  Each run's digests come from
   [Page_run.digests] — stored for a Literal, read from the Pattern memo
   a chunk at a time, misses computed four pages per loop — so the
   checksum never materialises a page or turns a generator into values.
   IOU chunks carry no payload on the wire, so they contribute
   nothing. *)
let base_checksum msg =
  let h = ref 1 in
  let fold d = h := (!h * 0x100000001B3) land max_int lxor d in
  (match msg.Message.memory with
  | None -> ()
  | Some chunks ->
      List.iter
        (fun c ->
          match c.Memory_object.content with
          | Memory_object.Iou _ -> ()
          | Memory_object.Data run ->
              Array.iter fold (Accent_mem.Page_run.digests run)
          | Memory_object.Digest_refs digests ->
              (* the references themselves are wire payload *)
              Array.iter fold digests)
        chunks);
  !h land 0x3FFFFFFF

(* Each fragment's checksum mixes the message sum with its sequence
   number, so a fragment replayed under the wrong seq fails to verify. *)
let fragment_checksum base seq = base lxor (seq * 0x9E3779B1) land 0x3FFFFFFF
let damage checksum = checksum lxor 0x5A5A5A5A

type out_msg = {
  uid : int;
  dst : int;
  msg : Message.t;
  count : int;
  base : int;
  frag_bytes : int array;
  first_extra_ms : float;
  acked : bool array;
  timers : Event_queue.handle array; (* [Event_queue.no_handle]: unarmed *)
  retries : int array;
  rto : float array;
  mutable next_unsent : int;
  mutable cum_acked : int; (* every seq below it is acked *)
  mutable in_flight : int;
  mutable unacked : int;
  mutable abandoned : bool;
}

type in_msg = {
  src : int;
  count_in : int;
  base_in : int;
  mutable got : bool array;
  mutable received : int;
  mutable cum : int;
  mutable top : int; (* highest seq received; -1 before the first *)
}

type t = {
  engine : Engine.t;
  host_id : int;
  link : Link.t;
  registry : Net_registry.t;
  cpu : service_ms:float -> (unit -> unit) -> unit;
  fragment_cost_ms : bytes:int -> float;
  on_deliver : msg:Message.t -> wire_bytes:int -> completes:bool -> unit;
  on_give_up : msg:Message.t -> dst:int -> unit;
  outbound : out_msg Int_tbl.t; (* uid -> state *)
  inbound : (int * int, in_msg) Hashtbl.t; (* (src, uid) -> state *)
  mutable next_uid : int;
  mutable retransmissions : int;
  mutable acks : int;
  mutable duplicates : int;
  mutable checksum_failures : int;
  mutable give_ups : int;
}

let max_sacks = 16

(* --- sender ------------------------------------------------------- *)

let give_up t m =
  if not m.abandoned then begin
    m.abandoned <- true;
    Array.iter (Engine.cancel t.engine) m.timers;
    Array.fill m.timers 0 m.count Event_queue.no_handle;
    Int_tbl.remove t.outbound m.uid;
    t.give_ups <- t.give_ups + 1;
    t.on_give_up ~msg:m.msg ~dst:m.dst
  end

let rec arm_timer t m i =
  m.timers.(i) <-
    Engine.schedule t.engine ~delay:(Time.ms m.rto.(i)) (fun () ->
        m.timers.(i) <- Event_queue.no_handle;
        if (not m.acked.(i)) && not m.abandoned then
          if m.retries.(i) >= max_retries then give_up t m
          else begin
            m.retries.(i) <- m.retries.(i) + 1;
            m.rto.(i) <- Float.min max_rto_ms (m.rto.(i) *. rto_backoff);
            t.retransmissions <- t.retransmissions + 1;
            transmit_frag t m i ~retransmit:true
          end)

and transmit_frag t m i ~retransmit =
  let bytes = m.frag_bytes.(i) in
  let cost =
    t.fragment_cost_ms ~bytes
    +. if i = 0 && not retransmit then m.first_extra_ms else 0.
  in
  t.cpu ~service_ms:cost (fun () ->
      if not m.abandoned then begin
        let category =
          if retransmit then Message.Retransmit else m.msg.Message.category
        in
        Link.transmit_frag t.link ~src:t.host_id ~dst:m.dst ~bytes ~category
          (fun fate ->
            let checksum =
              let good = fragment_checksum m.base i in
              match fate with
              | Fault_plan.Corrupted -> damage good
              | Fault_plan.Delivered | Fault_plan.Dropped -> good
            in
            Net_registry.deliver_arq t.registry ~host_id:m.dst
              (Net_registry.Arq_data
                 {
                   src = t.host_id;
                   msg = m.msg;
                   uid = m.uid;
                   seq = i;
                   count = m.count;
                   wire_bytes = bytes;
                   checksum;
                 }));
        arm_timer t m i
      end)

let pump t m =
  while
    (not m.abandoned)
    && m.next_unsent < m.count
    && m.in_flight < window
  do
    let i = m.next_unsent in
    m.next_unsent <- i + 1;
    m.in_flight <- m.in_flight + 1;
    transmit_frag t m i ~retransmit:false
  done

let send t ~dst ~msg ~wire_bytes ~first_fragment_extra_ms =
  let payload = Link.fragment_bytes in
  let count = Link.fragments_for wire_bytes in
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  let m =
    {
      uid;
      dst;
      msg;
      count;
      base = base_checksum msg;
      frag_bytes =
        Array.init count (fun i -> min payload (wire_bytes - (i * payload)));
      first_extra_ms = first_fragment_extra_ms;
      acked = Array.make count false;
      timers = Array.make count Event_queue.no_handle;
      retries = Array.make count 0;
      rto = Array.make count initial_rto_ms;
      next_unsent = 0;
      cum_acked = 0;
      in_flight = 0;
      unacked = count;
      abandoned = false;
    }
  in
  Int_tbl.replace t.outbound uid m;
  pump t m

let mark_acked t m i =
  if (i >= 0 && i < m.count) && not m.acked.(i) then begin
    m.acked.(i) <- true;
    m.unacked <- m.unacked - 1;
    m.in_flight <- m.in_flight - 1;
    Engine.cancel t.engine m.timers.(i);
    m.timers.(i) <- Event_queue.no_handle;
    if m.unacked = 0 then Int_tbl.remove t.outbound m.uid
  end

let handle_ack t ~uid ~cum ~sacks =
  match Int_tbl.find_opt t.outbound uid with
  | None -> () (* already completed or abandoned; stale ack *)
  | Some m ->
      for i = m.cum_acked to min cum m.count - 1 do
        mark_acked t m i
      done;
      m.cum_acked <- Int.max m.cum_acked (min cum m.count);
      List.iter (fun i -> mark_acked t m i) sacks;
      if Int_tbl.mem t.outbound uid then pump t m

(* --- receiver ----------------------------------------------------- *)

(* Walks down from [top]: nothing above it has arrived. *)
let sacks ~got ~cum ~top =
  let rec walk i n acc =
    if i < cum || n = max_sacks then acc
    else if got.(i) then walk (i - 1) (n + 1) (i :: acc)
    else walk (i - 1) n acc
  in
  walk top 0 []

let send_ack t entry ~uid =
  t.acks <- t.acks + 1;
  let sacks = sacks ~got:entry.got ~cum:entry.cum ~top:entry.top in
  let packet =
    Net_registry.Arq_ack { src = t.host_id; uid; cum = entry.cum; sacks }
  in
  let dst = entry.src in
  Link.transmit_frag t.link ~src:t.host_id ~dst ~bytes:ack_bytes
    ~category:Message.Ack (fun fate ->
      match fate with
      | Fault_plan.Corrupted ->
          (* an ack that fails its own integrity check is useless; the
             sender's timer recovers, exactly as for a lost ack *)
          ()
      | Fault_plan.Delivered | Fault_plan.Dropped ->
          Net_registry.deliver_arq t.registry ~host_id:dst packet)

let handle_data t ~src ~msg ~uid ~seq ~count ~wire_bytes ~checksum =
  let key = (src, uid) in
  let entry =
    match Hashtbl.find_opt t.inbound key with
    | Some e -> e
    | None ->
        let e =
          {
            src;
            count_in = count;
            base_in = base_checksum msg;
            got = Array.make count false;
            received = 0;
            cum = 0;
            top = -1;
          }
        in
        Hashtbl.replace t.inbound key e;
        e
  in
  if checksum <> fragment_checksum entry.base_in seq then
    (* damaged payload: discard silently and let the sender's timer
       resend — the simulated NMS has no NAK *)
    t.checksum_failures <- t.checksum_failures + 1
  else if entry.received = entry.count_in || entry.got.(seq) then begin
    (* duplicate: the ack must have been lost or late; re-ack so the
       sender stops resending *)
    t.duplicates <- t.duplicates + 1;
    send_ack t entry ~uid
  end
  else begin
    entry.got.(seq) <- true;
    entry.received <- entry.received + 1;
    entry.top <- Int.max entry.top seq;
    while entry.cum < entry.count_in && entry.got.(entry.cum) do
      entry.cum <- entry.cum + 1
    done;
    send_ack t entry ~uid;
    t.on_deliver ~msg ~wire_bytes ~completes:(entry.received = entry.count_in);
    (* Fully delivered: every further fragment is by definition a
       duplicate (the received-count check above catches them without
       the bitmap, and [send_ack] never scans past [cum]), so the
       per-fragment state can go.  The entry itself stays as a tombstone:
       removing it would let a late retransmit rebuild the message and
       deliver it a second time. *)
    if entry.received = entry.count_in then entry.got <- [||]
  end

let receive t (packet : Net_registry.arq_packet) =
  match packet with
  | Net_registry.Arq_data { src; msg; uid; seq; count; wire_bytes; checksum }
    ->
      handle_data t ~src ~msg ~uid ~seq ~count ~wire_bytes ~checksum
  | Net_registry.Arq_ack { src = _; uid; cum; sacks } ->
      handle_ack t ~uid ~cum ~sacks

let create engine ~host_id ~link ~registry ~cpu ~fragment_cost_ms ~on_deliver
    ~on_give_up =
  let t =
    {
      engine;
      host_id;
      link;
      registry;
      cpu;
      fragment_cost_ms;
      on_deliver;
      on_give_up;
      outbound = Int_tbl.create 16;
      inbound = Hashtbl.create 16;
      next_uid = 0;
      retransmissions = 0;
      acks = 0;
      duplicates = 0;
      checksum_failures = 0;
      give_ups = 0;
    }
  in
  Net_registry.register_arq registry ~host_id ~deliver:(receive t);
  t

let retransmissions t = t.retransmissions
let acks_sent t = t.acks
let duplicates t = t.duplicates
let checksum_failures t = t.checksum_failures
let give_ups t = t.give_ups

let reset_accounting t =
  t.retransmissions <- 0;
  t.acks <- 0;
  t.duplicates <- 0;
  t.checksum_failures <- 0;
  t.give_ups <- 0
