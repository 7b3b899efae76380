open Accent_sim
open Accent_net
open Accent_kernel

type t = {
  engine : Engine.t;
  ids : Ids.t;
  costs : Cost_model.t;
  monitor : Transfer_monitor.t;
  link : Link.t;
  registry : Net_registry.t;
  hosts : Host.t array;
  managers : Migration_manager.t array;
  bus : Mig_event.bus;
}

let create ?(seed = 42L) ?(costs = Cost_model.default) ?fault_plan ~n_hosts ()
    =
  assert (n_hosts >= 1);
  let engine = Engine.create ~seed () in
  let ids = Ids.create () in
  let monitor = Transfer_monitor.create () in
  let link =
    Link.create ?fault_plan engine ~params:costs.Cost_model.link ~monitor
  in
  let registry = Net_registry.create () in
  let hosts =
    Array.init n_hosts (fun i ->
        Host.create engine ~ids ~id:i
          ~name:(Printf.sprintf "host%d" i)
          ~costs ~link ~registry ~monitor)
  in
  let bus = Mig_event.create_bus () in
  let managers = Array.map (Migration_manager.create ~bus) hosts in
  { engine; ids; costs; monitor; link; registry; hosts; managers; bus }

let host t i = t.hosts.(i)
let manager t i = t.managers.(i)
let on_migration_event t f = Mig_event.subscribe t.bus f
let now t = Engine.now t.engine
let run ?limit t = Engine.run ?limit t.engine

let message_seconds t =
  Array.fold_left (fun acc h -> acc +. Host.message_seconds h) 0. t.hosts

let audit t =
  let faults = ref [] in
  let fault fmt = Printf.ksprintf (fun s -> faults := s :: !faults) fmt in
  Array.iteri
    (fun i h ->
      let in_use = Accent_mem.Phys_mem.in_use (Host.mem h)
      and resident = Host.resident_pages h in
      if in_use <> resident then
        fault "host %d frames: %d in use, %d resident in its spaces" i in_use
          resident;
      List.iter
        (fun (engine, counters) ->
          List.iter
            (fun (counter, n) ->
              if n <> 0 then fault "host %d %s.%s = %d" i engine counter n)
            counters)
        (Migration_manager.engine_stats t.managers.(i));
      let store = Netmsgserver.content_store (Host.nms h) in
      if not (Content_store.verify store) then
        fault "host %d store verify: a value does not hash to its digest" i;
      let held = Content_store.segment_count store
      and owned = Host.segments_owned h in
      if held <> owned then
        fault "host %d store segments: %d held, %d owned by live backers" i
          held owned)
    t.hosts;
  (* the one impaired route the bus cannot see: the pager killed the
     relocated process *)
  let killed proc_id =
    Array.exists
      (fun h ->
        match Host.find_proc h proc_id with
        | Some p -> p.Proc.failed
        | None -> false)
      t.hosts
  in
  List.iter
    (fun proc_id ->
      if not (killed proc_id) then
        fault "bus route: proc %d saw no outcome, give-up or pager kill"
          proc_id)
    (Mig_event.open_routes t.bus);
  if !faults <> [] then
    failwith ("World.audit:\n" ^ String.concat "\n" (List.rev !faults))

let reset_accounting t =
  Transfer_monitor.reset t.monitor;
  Array.iter
    (fun h ->
      Netmsgserver.reset_accounting (Host.nms h);
      Queue_server.reset_accounting (Host.cpu h);
      Queue_server.reset_accounting (Host.disk_server h))
    t.hosts

let migrate_and_run ?(after_ms = 0.) t ~proc ~src ~dst ~strategy =
  reset_accounting t;
  let report =
    ref
      (Report.create ~proc_name:proc.Accent_kernel.Proc.name ~strategy)
  in
  let request () =
    report :=
      Migration_manager.migrate t.managers.(src) ~proc
        ~dest:(Migration_manager.port t.managers.(dst))
        ~strategy ()
  in
  if after_ms <= 0. then request ()
  else ignore (Engine.schedule t.engine ~delay:(Time.ms after_ms) request);
  ignore (run t);
  let report = Report.settle !report ~monitor:t.monitor ~hosts:t.hosts in
  (* settled, an unfinished migration is impaired exactly when the
     transport gave up; with no such network explanation it is a genuine
     bug, not a simulated failure *)
  if
    report.Report.completed_at = None
    && report.Report.outcome = Report.Completed
  then
    failwith
      (Printf.sprintf "World.migrate_and_run: %s never completed"
         proc.Proc.name);
  audit t;
  report
