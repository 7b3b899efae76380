type outcome = Mig_event.outcome = Completed | Degraded | Aborted

let outcome_name = Mig_event.outcome_name

type t = {
  proc_name : string;
  strategy : Strategy.t;
  mutable requested_at : Accent_sim.Time.t option;
  mutable excised_at : Accent_sim.Time.t option;
  mutable core_delivered_at : Accent_sim.Time.t option;
  mutable rimas_delivered_at : Accent_sim.Time.t option;
  mutable inserted_at : Accent_sim.Time.t option;
  mutable restarted_at : Accent_sim.Time.t option;
  mutable completed_at : Accent_sim.Time.t option;
  mutable excise : Accent_kernel.Excise.timings option;
  mutable insert_ms : float option;
  mutable frozen_at : Accent_sim.Time.t option;
  mutable checkpointed_at : Accent_sim.Time.t option;
  mutable checkpoint_restored_at : Accent_sim.Time.t option;
  mutable checkpoint_pages : int;
  mutable precopy_rounds : int;
  mutable precopy_bytes : int;
  mutable dest_faults_zero : int;
  mutable dest_faults_disk : int;
  mutable dest_faults_imag : int;
  mutable prefetch_extra : int;
  mutable prefetch_hits : int;
  mutable remote_touched_pages : int;
  mutable remote_real_bytes_fetched : int;
  bytes_control : int;
  bytes_bulk : int;
  bytes_fault : int;
  bytes_retransmit : int;
  bytes_ack : int;
  retransmits : int;
  transport_give_ups : int;
  mutable dedup_pages_checked : int;
  mutable dedup_hits : int;
  mutable dedup_bytes_elided : int;
  network_messages : int;
  message_seconds : float;
  mutable outcome : outcome;
}

let create ~proc_name ~strategy =
  {
    proc_name;
    strategy;
    requested_at = None;
    excised_at = None;
    core_delivered_at = None;
    rimas_delivered_at = None;
    inserted_at = None;
    restarted_at = None;
    completed_at = None;
    excise = None;
    insert_ms = None;
    frozen_at = None;
    checkpointed_at = None;
    checkpoint_restored_at = None;
    checkpoint_pages = 0;
    precopy_rounds = 0;
    precopy_bytes = 0;
    dest_faults_zero = 0;
    dest_faults_disk = 0;
    dest_faults_imag = 0;
    prefetch_extra = 0;
    prefetch_hits = 0;
    remote_touched_pages = 0;
    remote_real_bytes_fetched = 0;
    bytes_control = 0;
    bytes_bulk = 0;
    bytes_fault = 0;
    bytes_retransmit = 0;
    bytes_ack = 0;
    retransmits = 0;
    transport_give_ups = 0;
    dedup_pages_checked = 0;
    dedup_hits = 0;
    dedup_bytes_elided = 0;
    network_messages = 0;
    message_seconds = 0.;
    outcome = Completed;
  }

(* The one outcome rule: an abandoned message impairs a migration that
   has not already been marked — Aborted if the process never restarted
   at the destination, Degraded if it did. *)
let impair r =
  if r.outcome = Completed then
    r.outcome <- (if r.restarted_at = None then Aborted else Degraded)

(* Destination faults and prefetch traffic only belong to the migration
   while the relocated process is executing there: pre-copy keeps the
   process running (and faulting) at the source between Requested and
   Frozen, and those must not count. *)
let counting_remote_execution r =
  r.restarted_at <> None && r.completed_at = None

let apply r (ev : Mig_event.t) =
  let at = Some ev.at in
  match ev.kind with
  | Requested _ -> r.requested_at <- at
  | Excised timings ->
      r.excised_at <- at;
      r.excise <- Some timings
  | Core_delivered -> r.core_delivered_at <- at
  | Rimas_delivered { data_bytes } ->
      r.rimas_delivered_at <- at;
      r.remote_real_bytes_fetched <- data_bytes
  | Inserted { insert_ms } ->
      r.inserted_at <- at;
      r.insert_ms <- Some insert_ms
  | Restarted -> r.restarted_at <- at
  | Frozen { residual_bytes } ->
      r.frozen_at <- at;
      r.precopy_bytes <- r.precopy_bytes + residual_bytes
  | Precopy_round { round; bytes } ->
      r.precopy_rounds <- round;
      r.precopy_bytes <- r.precopy_bytes + bytes
  | Fault kind ->
      if counting_remote_execution r then begin
        match kind with
        | Fault_zero -> r.dest_faults_zero <- r.dest_faults_zero + 1
        | Fault_disk -> r.dest_faults_disk <- r.dest_faults_disk + 1
        | Fault_imaginary -> r.dest_faults_imag <- r.dest_faults_imag + 1
      end
  | Prefetch kind ->
      if counting_remote_execution r then begin
        match kind with
        | Prefetch_issued -> r.prefetch_extra <- r.prefetch_extra + 1
        | Prefetch_hit -> r.prefetch_hits <- r.prefetch_hits + 1
      end
  | Dedup_digests { pages; hits } ->
      r.dedup_pages_checked <- r.dedup_pages_checked + pages;
      r.dedup_hits <- r.dedup_hits + hits
  | Dedup_elided { bytes } ->
      r.dedup_bytes_elided <- r.dedup_bytes_elided + bytes
  | Checkpointed { pages; new_bytes = _ } ->
      r.checkpointed_at <- at;
      r.checkpoint_pages <- pages
  | Restored { pages = _ } -> r.checkpoint_restored_at <- at
  | Transport_give_up | Engine_abort _ -> impair r
  | Outcome { outcome = _; remote_touched_pages } ->
      r.completed_at <- at;
      r.remote_touched_pages <- remote_touched_pages;
      r.remote_real_bytes_fetched <-
        r.remote_real_bytes_fetched
        + (Accent_mem.Page.size * (r.dest_faults_imag + r.prefetch_extra))
  (* balancer decisions are trace-only: they explain why a migration
     started but stamp nothing on its report *)
  | Auto_threshold _ | Auto_candidate _ -> ()

let replay ~proc_id events =
  let mine =
    List.filter (fun (ev : Mig_event.t) -> ev.proc_id = proc_id) events
  in
  List.find_map
    (fun (ev : Mig_event.t) ->
      match ev.kind with
      | Requested { proc_name; strategy } -> Some (create ~proc_name ~strategy)
      | _ -> None)
    mine
  |> Option.map (fun r ->
         List.iter (apply r) mine;
         r)

let settle r ~monitor ~hosts =
  let open Accent_net in
  let sum f =
    Array.fold_left (fun acc h -> acc + f (Accent_kernel.Host.nms h)) 0 hosts
  in
  let bytes c = Transfer_monitor.bytes_of monitor c in
  let r =
    {
      r with
      bytes_control = bytes Accent_ipc.Message.Control;
      bytes_bulk = bytes Accent_ipc.Message.Bulk;
      bytes_fault = bytes Accent_ipc.Message.Fault;
      bytes_retransmit = bytes Accent_ipc.Message.Retransmit;
      bytes_ack = bytes Accent_ipc.Message.Ack;
      retransmits =
        sum (fun nms ->
            match Netmsgserver.reliability nms with
            | None -> 0
            | Some rel -> Reliable.retransmissions rel);
      transport_give_ups = sum Netmsgserver.transport_give_ups;
      network_messages = Transfer_monitor.messages_total monitor;
      message_seconds =
        Array.fold_left
          (fun acc h -> acc +. Accent_kernel.Host.message_seconds h)
          0. hosts;
    }
  in
  if r.transport_give_ups > 0 then impair r;
  r

let span later earlier =
  match (later, earlier) with
  | Some b, Some a -> Accent_sim.Time.to_seconds (Accent_sim.Time.diff b a)
  | _ -> 0.

let excise_seconds t = span t.excised_at t.requested_at
let core_transfer_seconds t = span t.core_delivered_at t.excised_at

(* The two context messages travel concurrently (their fragments interleave
   on the wire), so RIMAS delivery is measured from excision, not from Core
   delivery — under pure-IOU the tiny RIMAS routinely arrives first. *)
let rimas_transfer_seconds t = span t.rimas_delivered_at t.excised_at

let transfer_seconds t =
  (* the transfer phase ends when the later of the two messages lands *)
  match (t.core_delivered_at, t.rimas_delivered_at) with
  | Some a, Some b -> span (Some (Float.max a b)) t.excised_at
  | _ -> 0.
let insert_seconds t = span t.inserted_at t.rimas_delivered_at
let remote_execution_seconds t = span t.completed_at t.restarted_at
let end_to_end_seconds t = span t.completed_at t.requested_at

let downtime_seconds t =
  let stop = match t.frozen_at with Some _ as f -> f | None -> t.requested_at in
  span t.restarted_at stop

let transfer_plus_execution_seconds t =
  transfer_seconds t +. remote_execution_seconds t

let goodput_bytes t = t.bytes_control + t.bytes_bulk + t.bytes_fault
let overhead_bytes t = t.bytes_retransmit + t.bytes_ack
let bytes_total t = goodput_bytes t + overhead_bytes t

let prefetch_hit_ratio t =
  if t.prefetch_extra = 0 then None
  else Some (float_of_int t.prefetch_hits /. float_of_int t.prefetch_extra)

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>%s under %s:@,\
    \  excise %.2fs, transfer %.2fs (core %.2f + rimas %.2f), insert %.2fs@,\
    \  remote execution %.2fs, end-to-end %.2fs@,\
    \  faults at destination: %d zero, %d disk, %d imaginary@,\
    \  bytes: %s total (%s bulk, %s fault, %s control) in %d messages@,\
    \  message handling: %.2fs" t.proc_name (Strategy.name t.strategy)
    (excise_seconds t) (transfer_seconds t) (core_transfer_seconds t)
    (rimas_transfer_seconds t) (insert_seconds t)
    (remote_execution_seconds t) (end_to_end_seconds t) t.dest_faults_zero
    t.dest_faults_disk t.dest_faults_imag
    (Accent_util.Bytesize.to_string (bytes_total t))
    (Accent_util.Bytesize.to_string t.bytes_bulk)
    (Accent_util.Bytesize.to_string t.bytes_fault)
    (Accent_util.Bytesize.to_string t.bytes_control)
    t.network_messages t.message_seconds;
  if overhead_bytes t > 0 || t.outcome <> Completed then
    Format.fprintf ppf
      "@,\
      \  reliability: %s overhead (%s retransmit in %d resends, %s acks), %d \
       give-ups, outcome %s"
      (Accent_util.Bytesize.to_string (overhead_bytes t))
      (Accent_util.Bytesize.to_string t.bytes_retransmit)
      t.retransmits
      (Accent_util.Bytesize.to_string t.bytes_ack)
      t.transport_give_ups (outcome_name t.outcome);
  if t.dedup_pages_checked > 0 then
    Format.fprintf ppf
      "@,\
      \  dedup: %d/%d digests already at destination, %s elided"
      t.dedup_hits t.dedup_pages_checked
      (Accent_util.Bytesize.to_string t.dedup_bytes_elided);
  if t.checkpointed_at <> None || t.checkpoint_restored_at <> None then
    Format.fprintf ppf
      "@,\
      \  checkpoint: %d pages%s%s" t.checkpoint_pages
      (match t.checkpointed_at with
      | Some at ->
          Printf.sprintf ", saved at %.2fs" (Accent_sim.Time.to_seconds at)
      | None -> "")
      (match t.checkpoint_restored_at with
      | Some at ->
          Printf.sprintf ", restored at %.2fs" (Accent_sim.Time.to_seconds at)
      | None -> "");
  Format.fprintf ppf "@]"
