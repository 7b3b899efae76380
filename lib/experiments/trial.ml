open Accent_core

type summary = {
  spec : Accent_workloads.Spec.t;
  strategy : Strategy.t;
  report : Report.t;
}

type result = {
  spec : Accent_workloads.Spec.t;
  strategy : Strategy.t;
  world : World.t;
  proc : Accent_kernel.Proc.t;
  report : Report.t;
}

let build_only ?(seed = 42L) ?costs ?fault_plan ?write_fraction ~spec () =
  let world = World.create ~seed ?costs ?fault_plan ~n_hosts:2 () in
  let proc =
    Accent_workloads.Spec.build ?write_fraction (World.host world 0) spec
  in
  (world, proc)

let run ?seed ?costs ?fault_plan ?write_fraction ?(migrate_after_ms = 0.)
    ?on_event ~spec ~strategy () =
  let world, proc =
    build_only ?seed ?costs ?fault_plan ?write_fraction ~spec ()
  in
  (match on_event with
  | Some f -> World.on_migration_event world f
  | None -> ());
  if Strategy.is_live strategy || migrate_after_ms > 0. then
    Accent_kernel.Proc_runner.start (World.host world 0) proc;
  let report =
    World.migrate_and_run ~after_ms:migrate_after_ms world ~proc ~src:0 ~dst:1
      ~strategy
  in
  let proc =
    match Accent_kernel.Host.find_proc (World.host world 1) proc.Accent_kernel.Proc.id with
    | Some p -> p
    | None -> proc
  in
  { spec; strategy; world; proc; report }

let summary (r : result) =
  { spec = r.spec; strategy = r.strategy; report = r.report }
