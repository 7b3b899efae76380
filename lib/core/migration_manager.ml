open Accent_mem
open Accent_ipc
open Accent_kernel
open Transfer_engine

type t = {
  ctx : ctx;
  copy : Engine_copy.t;
  push : Engine_push.t;
}

let port t = t.ctx.port
let host t = t.ctx.host
let backing t = t.ctx.backing
let bus t = t.ctx.bus

(* --- destination lifecycle ----------------------------------------------- *)

let finish_insert ctx handoff ~insert_ms proc =
  emit ctx ~proc_id:proc.Proc.id (Mig_event.Inserted { insert_ms });
  proc.Proc.prefetch <- handoff.prefetch;
  proc.Proc.on_complete <-
    Some
      (fun p ->
        let remote_touched_pages =
          match p.Proc.space with
          | Some space -> Address_space.touched_pages space
          | None -> handoff.report.Report.remote_touched_pages
        in
        emit ctx ~proc_id:p.Proc.id
          (Mig_event.Outcome
             { outcome = handoff.report.Report.outcome; remote_touched_pages });
        match handoff.on_complete with
        | Some f -> f p handoff.report
        | None -> ());
  emit ctx ~proc_id:proc.Proc.id Mig_event.Restarted;
  (match handoff.on_restart with Some f -> f proc | None -> ());
  Proc_runner.start ctx.host proc

let insert ctx ~core ~rimas handoff =
  let insert_ms = Insert.estimate_ms (Host.costs ctx.host) core rimas in
  Insert.insert ctx.host ~core ~rimas ~k:(finish_insert ctx handoff ~insert_ms)

(* --- port dispatch -------------------------------------------------------- *)

(* The payload sets are disjoint, so at most one handler consumes. *)
let handle t msg =
  if
    not
      (Engine_copy.handle t.copy msg
      || Engine_push.handle t.push msg
      || Dedup.handle t.ctx.dedup msg)
  then Logs.warn (fun m -> m "MigrationManager: unexpected message")

let create ?bus host =
  let bus =
    match bus with Some bus -> bus | None -> Mig_event.create_bus ()
  in
  let port = Host.new_port host in
  let backing =
    Backing_server.create host
      ~name:(Printf.sprintf "mm-backing@%s" (Host.name host))
  in
  let dedup = Dedup.create ~host ~port ~bus in
  let rec ctx =
    {
      host;
      port;
      backing;
      bus;
      dedup;
      insert = (fun ~core ~rimas handoff -> insert ctx ~core ~rimas handoff);
    }
  in
  (* creation order is cleanup-subscription order: Dedup, copy, push *)
  let copy = Engine_copy.create ctx in
  let push = Engine_push.create ctx in
  let t = { ctx; copy; push } in
  Kernel_ipc.bind (Host.kernel host) port (handle t);
  (* When the reliable transport abandons one of our context or pre-copy
     messages, the migration it belonged to can never proceed normally:
     publish the give-up so the event fold marks the report
     Degraded/Aborted instead of waiting on a delivery that will never
     happen. *)
  Accent_net.Netmsgserver.on_transport_give_up (Host.nms host) (fun msg ->
      match
        List.find_map
          (fun give_up_proc -> give_up_proc msg.Message.payload)
          [ Engine_copy.give_up_proc; Engine_push.give_up_proc; Dedup.give_up_proc ]
      with
      | Some proc_id -> emit ctx ~proc_id Mig_event.Transport_give_up
      | None -> ());
  (* The pager cannot depend on this layer, so it exposes observation
     hooks; turn them into bus events (routing drops events for processes
     no migration is tracking). *)
  Pager.set_observer (Host.pager host)
    ~on_fault:(fun proc kind ->
      emit ctx ~proc_id:proc.Proc.id
        (Mig_event.Fault
           (match kind with
           | `Zero -> Mig_event.Fault_zero
           | `Disk -> Mig_event.Fault_disk
           | `Imaginary -> Mig_event.Fault_imaginary)))
    ~on_prefetch:(fun proc kind ->
      emit ctx ~proc_id:proc.Proc.id
        (Mig_event.Prefetch
           (match kind with
           | `Issued -> Mig_event.Prefetch_issued
           | `Hit -> Mig_event.Prefetch_hit)));
  t

(* --- source side ---------------------------------------------------------- *)

let migrate t ~proc ~dest ~strategy ?on_complete ?on_restart () =
  let report = Report.create ~proc_name:proc.Proc.name ~strategy in
  Mig_event.register t.ctx.bus ~proc_id:proc.Proc.id report;
  emit t.ctx ~proc_id:proc.Proc.id
    (Mig_event.Requested { proc_name = proc.Proc.name; strategy });
  let handoff =
    { report; prefetch = strategy.Strategy.prefetch; on_complete; on_restart }
  in
  let classic rimas = Engine_copy.start t.copy ~proc ~dest ~rimas ~handoff in
  let push push_set ~max_rounds ~threshold_pages =
    Engine_push.start t.push ~proc ~dest ~push_set ~max_rounds ~threshold_pages
      ~handoff
  in
  (match strategy.Strategy.transfer with
  | Strategy.Pure_copy -> classic (Engine_copy.Whole { no_ious = true })
  | Strategy.Pure_iou -> classic (Engine_copy.Whole { no_ious = false })
  | Strategy.Resident_set -> classic Engine_copy.Keep_resident
  | Strategy.Working_set { window_ms } ->
      classic (Engine_copy.Keep_window window_ms)
  | Strategy.Pre_copy { max_rounds; threshold_pages } ->
      push Engine_push.All ~max_rounds ~threshold_pages
  | Strategy.Hybrid { max_rounds; threshold_pages; window_ms } ->
      push (Engine_push.Window window_ms) ~max_rounds ~threshold_pages);
  report

let engine_stats t =
  [
    ("copy", Engine_copy.debug_stats t.copy);
    ("push", Engine_push.debug_stats t.push);
    ("dedup", Dedup.debug_stats t.ctx.dedup);
  ]
