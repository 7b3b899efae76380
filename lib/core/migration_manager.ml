open Accent_sim
open Accent_mem
open Accent_ipc
open Accent_kernel

type t = {
  host : Host.t;
  port : Port.id;
  backing : Backing_server.t;
  bus : Mig_event.bus;
  mutable engines : Transfer_engine.t list;
  mutable started : int;
  mutable received : int;
}

let port t = t.port
let host t = t.host
let backing t = t.backing
let bus t = t.bus

let emit t ~proc_id kind =
  Mig_event.publish t.bus
    { Mig_event.at = Engine.now (Host.engine t.host); proc_id; kind }

(* --- destination lifecycle ----------------------------------------------- *)

let finish_insert t (a : Transfer_engine.arrival) ~insert_ms proc =
  emit t ~proc_id:proc.Proc.id (Mig_event.Inserted { insert_ms });
  proc.Proc.prefetch <- a.prefetch;
  proc.Proc.on_complete <-
    Some
      (fun p ->
        let remote_touched_pages =
          match p.Proc.space with
          | Some space -> Address_space.touched_pages space
          | None -> a.report.Report.remote_touched_pages
        in
        emit t ~proc_id:p.Proc.id
          (Mig_event.Outcome
             { outcome = a.report.Report.outcome; remote_touched_pages });
        match a.on_complete with Some f -> f p a.report | None -> ());
  emit t ~proc_id:proc.Proc.id Mig_event.Restarted;
  (match a.on_restart with Some f -> f proc | None -> ());
  Proc_runner.start t.host proc

let insert_arrival t (a : Transfer_engine.arrival) =
  let insert_ms = Insert.estimate_ms (Host.costs t.host) a.core a.rimas in
  Insert.insert t.host ~core:a.core ~rimas:a.rimas
    ~k:(finish_insert t a ~insert_ms)

(* --- port dispatch -------------------------------------------------------- *)

let handle t msg =
  let claimed =
    List.exists
      (fun (e : Transfer_engine.t) -> e.Transfer_engine.handle msg)
      t.engines
  in
  if not claimed then
    Logs.warn (fun m -> m "MigrationManager: unexpected message")

let create ?bus host =
  let bus =
    match bus with Some bus -> bus | None -> Mig_event.create_bus ()
  in
  let port = Host.new_port host in
  let t =
    {
      host;
      port;
      backing =
        Backing_server.create host
          ~name:(Printf.sprintf "mm-backing@%s" (Host.name host));
      bus;
      engines = [];
      started = 0;
      received = 0;
    }
  in
  let dedup = Dedup.create ~host ~port ~bus in
  let ctx =
    {
      Transfer_engine.host;
      port;
      backing = t.backing;
      bus;
      dedup;
      insert = insert_arrival t;
      note_received = (fun () -> t.received <- t.received + 1);
    }
  in
  (* The digest-first handshake is strategy-independent, so it mounts as
     a fourth pseudo-engine: it claims no strategy, only the
     Mig_digests/Mig_need protocol messages. *)
  let dedup_engine =
    {
      Transfer_engine.name = "dedup";
      claims = (fun _ -> false);
      start =
        (fun ~proc:_ ~dest:_ ~strategy:_ ~report:_ ~on_complete:_
             ~on_restart:_ ->
          invalid_arg "Migration_manager: dedup pseudo-engine cannot start");
      handle = Dedup.handle dedup;
      give_up_proc = Dedup.give_up_proc;
      debug_stats = (fun () -> Dedup.debug_stats dedup);
    }
  in
  t.engines <-
    [
      Engine_copy.create ctx;
      Engine_iou.create ctx;
      Engine_push.create ctx;
      dedup_engine;
    ];
  Kernel_ipc.bind (Host.kernel host) port (handle t);
  (* When the reliable transport abandons one of our context or pre-copy
     messages, the migration it belonged to can never proceed normally:
     publish the give-up so the event fold marks the report
     Degraded/Aborted instead of waiting on a delivery that will never
     happen. *)
  Accent_net.Netmsgserver.on_transport_give_up (Host.nms host) (fun msg ->
      match
        List.find_map
          (fun (e : Transfer_engine.t) ->
            e.Transfer_engine.give_up_proc msg.Message.payload)
          t.engines
      with
      | Some proc_id -> emit t ~proc_id Mig_event.Transport_give_up
      | None -> ());
  (* The pager cannot depend on this layer, so it exposes observation
     hooks; turn them into bus events (routing drops events for processes
     no migration is tracking). *)
  Pager.set_observer (Host.pager host)
    ~on_fault:(fun proc kind ->
      emit t ~proc_id:proc.Proc.id
        (Mig_event.Fault
           (match kind with
           | `Zero -> Mig_event.Fault_zero
           | `Disk -> Mig_event.Fault_disk
           | `Imaginary -> Mig_event.Fault_imaginary)))
    ~on_prefetch:(fun proc kind ->
      emit t ~proc_id:proc.Proc.id
        (Mig_event.Prefetch
           (match kind with
           | `Issued -> Mig_event.Prefetch_issued
           | `Hit -> Mig_event.Prefetch_hit)));
  t

(* --- source side ---------------------------------------------------------- *)

let migrate t ~proc ~dest ~strategy ?on_complete ?on_restart () =
  t.started <- t.started + 1;
  let report = Report.create ~proc_name:proc.Proc.name ~strategy in
  Mig_event.register t.bus ~proc_id:proc.Proc.id report;
  emit t ~proc_id:proc.Proc.id
    (Mig_event.Requested { proc_name = proc.Proc.name; strategy });
  (match
     List.find_opt
       (fun (e : Transfer_engine.t) ->
         e.Transfer_engine.claims strategy.Strategy.transfer)
       t.engines
   with
  | Some engine ->
      engine.Transfer_engine.start ~proc ~dest ~strategy ~report ~on_complete
        ~on_restart
  | None ->
      (* unreachable while the three stock engines cover Strategy.transfer *)
      invalid_arg "Migration_manager.migrate: no engine claims this strategy");
  report

let migrations_started t = t.started
let migrations_received t = t.received

let engine_stats t =
  List.map
    (fun (e : Transfer_engine.t) ->
      (e.Transfer_engine.name, e.Transfer_engine.debug_stats ()))
    t.engines
