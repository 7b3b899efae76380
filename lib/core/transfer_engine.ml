open Accent_sim
open Accent_kernel

type handoff = {
  report : Report.t;
  prefetch : int;
  on_complete : (Proc.t -> Report.t -> unit) option;
  on_restart : (Proc.t -> unit) option;
}

type ctx = {
  host : Host.t;
  port : Accent_ipc.Port.id;
  backing : Backing_server.t;
  bus : Mig_event.bus;
  dedup : Dedup.t;
  insert : core:Context.core -> rimas:Accent_ipc.Memory_object.t -> handoff -> unit;
}

exception Abort of string

let emit ctx ~proc_id kind =
  Mig_event.publish ctx.bus
    { Mig_event.at = Engine.now (Host.engine ctx.host); proc_id; kind }

let abort_migration ctx ~proc_id reason =
  Logs.warn (fun m ->
      m "MigrationManager: aborting migration of proc %d (%s)" proc_id reason);
  emit ctx ~proc_id (Mig_event.Engine_abort { reason })

(* Freeze first: a live process may have a fault in flight, which must
   retire before ExciseProcess can dismantle the space. *)
let freeze_until_quiescent ctx proc ~k =
  Proc_runner.interrupt proc;
  let engine = Host.engine ctx.host in
  let rec once_quiescent () =
    if proc.Proc.in_flight then
      ignore (Engine.schedule engine ~delay:(Time.ms 2.) once_quiescent)
    else k ()
  in
  once_quiescent ()
