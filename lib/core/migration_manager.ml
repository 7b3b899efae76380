open Accent_ipc
open Accent_kernel
open Transfer_engine

type t = { ctx : ctx; engine : Transfer_engine.t }

(* Wakeup plus lookup per request the manager's backer serves, calibrated
   so a remote fault through it costs the same ~115 ms as one through the
   NetMsgServer cache. *)
let backing_service_ms = 50.

let port t = t.ctx.port
let backing t = t.ctx.backing
let bus t = t.ctx.bus

(* The payload sets are disjoint, so at most one handler consumes. *)
let handle t msg =
  if not (Transfer_engine.handle t.engine msg || Dedup.handle t.ctx.dedup msg)
  then Logs.warn (fun m -> m "MigrationManager: unexpected message")

let create ~bus host =
  let port = Host.new_port host in
  let backing = Host.new_backer host ~service_ms:backing_service_ms in
  let dedup = Dedup.create ~host ~port ~bus in
  let ctx = { host; port; backing; bus; dedup } in
  (* creation order is cleanup-subscription order: Dedup, then the engine *)
  let t = { ctx; engine = Transfer_engine.create ctx } in
  Kernel_ipc.bind (Host.kernel host) port (handle t);
  (* When the reliable transport abandons one of our context, push or
     dedup messages, the migration it belonged to can never proceed
     normally: publish the give-up so the event fold marks the report
     Degraded/Aborted instead of waiting on a delivery that will never
     happen. *)
  Accent_net.Netmsgserver.on_transport_give_up (Host.nms host) (fun msg ->
      match
        List.find_map
          (fun give_up_proc -> give_up_proc msg.Message.payload)
          [ Transfer_engine.give_up_proc; Dedup.give_up_proc ]
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

let migrate t ~proc ~dest ~strategy ?on_complete ?on_restart () =
  let report = Report.create ~proc_name:proc.Proc.name ~strategy in
  Mig_event.register t.ctx.bus ~proc_id:proc.Proc.id (Report.apply report);
  emit t.ctx ~proc_id:proc.Proc.id
    (Mig_event.Requested { proc_name = proc.Proc.name; strategy });
  Transfer_engine.start t.engine ~proc ~dest
    ~transfer:strategy.Strategy.transfer
    ~handoff:
      { report; prefetch = strategy.Strategy.prefetch; on_complete; on_restart };
  report

let engine_stats t =
  [
    ("transfer", Transfer_engine.debug_stats t.engine);
    ("dedup", Dedup.debug_stats t.ctx.dedup);
  ]
