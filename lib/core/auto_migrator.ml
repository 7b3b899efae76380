open Accent_sim
open Accent_kernel

type policy = {
  period_ms : float;
  strategy : Strategy.t;
  max_migrations : int;
  placement : Placement_policy.t;
}

let default_policy =
  {
    period_ms = 2_000.;
    strategy = Strategy.pure_iou ~prefetch:1 ();
    max_migrations = 8;
    placement = Placement_policy.threshold ();
  }

type t = {
  world : World.t;
  policy : policy;
  rng : Accent_util.Rng.t;
  live : unit -> bool;
  loads_buf : float array;
      (* one load slot per host, refilled in place each tick; policies
         consume the snapshot synchronously, so the buffer is reusable *)
  movable_on : int -> Placement_policy.candidate list;
      (* hoisted: built once at [start], not rebuilt per tick *)
  mutable tick_k : unit -> unit;
  mutable triggered : int;
}

(* A process is movable if it is actually executing and not already in
   the middle of a fault (Excise refuses those). *)
let movable proc =
  match proc.Proc.pcb.Pcb.status with
  | Pcb.Running -> not proc.Proc.in_flight
  | Pcb.Ready | Pcb.Blocked | Pcb.Terminated | Pcb.Excised -> false

let live_procs_anywhere world =
  Array.exists
    (fun host -> Host.live_proc_count host > 0)
    world.World.hosts

(* --- sampling the world into a policy snapshot -------------------------- *)

(* The per-tick sample refills the preallocated load buffer in place;
   the only snapshot allocation left is the record itself.  [movable_on]
   was hoisted to [start]. *)
let snapshot t =
  let hosts = t.world.World.hosts in
  let loads = t.loads_buf in
  for i = 0 to Array.length hosts - 1 do
    loads.(i) <- Load_metric.host_load hosts.(i)
  done;
  { Placement_policy.loads; movable = t.movable_on; rng = t.rng }

(* --- executing what the policy decided ---------------------------------- *)

let execute_move t (d : Placement_policy.directive) =
  let world = t.world in
  let src = d.Placement_policy.src and dst = d.Placement_policy.dst in
  match Host.find_proc (World.host world src) d.victim.Placement_policy.proc_id with
  | None -> () (* departed between snapshot and execution *)
  | Some proc ->
      if movable proc && src <> dst then begin
        t.triggered <- t.triggered + 1;
        Mig_event.publish world.World.bus
          {
            Mig_event.at = World.now world;
            proc_id = proc.Proc.id;
            kind =
              Mig_event.Auto_candidate { proc_name = proc.Proc.name; src; dst };
          };
        (* freeze cleanly before excision: wait for any in-flight
           reference to retire *)
        Proc_runner.interrupt proc;
        let rec when_quiet () =
          if proc.Proc.in_flight then
            ignore
              (Engine.schedule world.World.engine ~delay:(Time.ms 2.)
                 (fun () -> when_quiet ()))
          else
            ignore
              (Migration_manager.migrate
                 (World.manager world src)
                 ~proc
                 ~dest:(Migration_manager.port (World.manager world dst))
                 ~strategy:t.policy.strategy ())
        in
        when_quiet ()
      end

let execute t = function
  | Placement_policy.Observe { src; spread } ->
      Mig_event.publish t.world.World.bus
        {
          Mig_event.at = World.now t.world;
          proc_id = -1;
          kind = Mig_event.Auto_threshold { src; spread };
        }
  | Placement_policy.Move d ->
      if t.triggered < t.policy.max_migrations then execute_move t d

let tick t =
  (* stop when done migrating or when nothing is left running, so the
     engine can go quiescent *)
  if t.triggered < t.policy.max_migrations && t.live () then begin
    List.iter (execute t)
      (Placement_policy.decide t.policy.placement (snapshot t));
    ignore
      (Engine.schedule t.world.World.engine ~delay:(Time.ms t.policy.period_ms)
         t.tick_k)
  end

let start ?live world (policy : policy) =
  let live =
    match live with
    | Some f -> f
    | None -> fun () -> live_procs_anywhere world
  in
  let registry = world.World.registry in
  let candidate host proc =
    {
      Placement_policy.proc_id = proc.Proc.id;
      proc_name = proc.Proc.name;
      host = Host.id host;
      affinity =
        (fun host_id -> Load_metric.affinity ~registry host proc ~host_id);
    }
  in
  let movable_on i =
    let host = World.host world i in
    List.filter_map
      (fun proc -> if movable proc then Some (candidate host proc) else None)
      (Host.procs host)
  in
  let t =
    {
      world;
      policy;
      rng = Engine.rng world.World.engine "auto-migrator";
      live;
      loads_buf = Array.make (Array.length world.World.hosts) 0.;
      movable_on;
      tick_k = (fun () -> ());
      triggered = 0;
    }
  in
  t.tick_k <- (fun () -> tick t);
  ignore
    (Engine.schedule world.World.engine ~delay:(Time.ms policy.period_ms)
       t.tick_k);
  t

let migrations_triggered t = t.triggered
