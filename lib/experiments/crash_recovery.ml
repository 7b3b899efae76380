open Accent_sim
open Accent_net
open Accent_kernel
open Accent_core

(* One crash trial: checkpoint the process before migrating it, kill the
   source host mid-migration (scheduled partition + backing-server death +
   the source incarnation stops executing), detect the failure from the
   event bus (the first transport give-up or engine abort for the process)
   and restore the checkpoint on the destination under a different cost
   model.  The paper's residual-dependency hazard (§4.3.3) is exactly what
   this recovers from: without the durable image, every lazy strategy's
   process dies with its source. *)

type trial = {
  strategy : Strategy.t;
  seed : int64;
  kill_frac : float;  (** where in the clean transfer window the kill lands *)
  kill_ms : float;
  recovered : bool;  (** the checkpoint-restore path was exercised *)
  completed : bool;  (** the process ran its reference trace to the end *)
  integrity_ok : bool;  (** full digest sweep of the durable store passed *)
  recovery_downtime_s : float;
      (** execution stop (freeze, or the kill for a live source, or the
          request for the classic strategies) to restart — from the
          checkpoint when the crash forced a restore, from the migration
          itself when it beat the kill *)
  clean_downtime_s : float;  (** the same seed's crash-free twin *)
  checkpoint_pages : int;
  report : Report.t;
}

type summary = {
  strategy : Strategy.t;
  trials : int;
  all_completed : bool;
  all_verified : bool;
  p50_s : float;
  p99_s : float;
  clean_p50_s : float;
}

type t = {
  spec : Accent_workloads.Spec.t;
  seed : int64;
  kill_fracs : float list;
  trials : trial list;
  summaries : summary list;
}

let default_kill_fracs = [ 0.25; 0.5; 0.75 ]

let default_strategies () =
  [
    Strategy.pure_copy;
    Strategy.pure_iou ();
    Strategy.pre_copy ();
    Strategy.hybrid ();
  ]

(* Restoration lands on whatever host survived, not on hardware chosen for
   the process: price InsertProcess as if the destination were half as
   fast, exercising the [?cost_model] seam. *)
let restore_costs (c : Cost_model.t) =
  {
    c with
    Cost_model.insert_base_ms = c.Cost_model.insert_base_ms *. 2.;
    insert_per_amap_entry_ms = c.Cost_model.insert_per_amap_entry_ms *. 2.;
    insert_per_data_page_ms = c.Cost_model.insert_per_data_page_ms *. 2.;
  }

(* The partition never heals within the trial: the source is dead. *)
let forever_ms = 1e12

let crash_trial ~seed ~spec ~strategy ~kill_frac ~kill_ms ~clean_downtime_s =
  let fault_plan =
    Fault_plan.with_partition ~between:(0, 1) ~start_ms:kill_ms
      ~duration_ms:forever_ms Fault_plan.none
  in
  let world = World.create ~seed ~fault_plan ~n_hosts:2 () in
  let h0 = World.host world 0 and h1 = World.host world 1 in
  let proc = Accent_workloads.Spec.build h0 spec in
  let proc_id = proc.Proc.id in
  (* The durable store must outlive the source host; size it so LRU
     pressure can never evict a checkpointed page. *)
  let store =
    Content_store.create
      ~capacity_pages:((Accent_workloads.Spec.real_pages spec * 2) + 256)
      ()
  in
  (* The save publishes its Checkpointed event before [migrate] registers
     the report's route: keep it, to fold in once the report exists. *)
  let checkpointed = ref None in
  World.on_migration_event world (fun ev ->
      match ev.Mig_event.kind with
      | Mig_event.Checkpointed _ -> checkpointed := Some ev
      | _ -> ());
  let ck =
    Checkpoint.save ~bus:world.World.bus ~at:(World.now world) store
      (Proc_image.capture h0 proc)
  in
  let completed_at = ref None in
  let recovering = ref false in
  let restore_restart_at = ref None in
  let trigger_restore () =
    if (not !recovering) && !completed_at = None then begin
      recovering := true;
      (* A half-migrated incarnation may already exist at the destination
         (restarted, then wedged faulting against the dead source); clear
         it out before reincarnating from the checkpoint. *)
      (match Host.find_proc h1 proc_id with
      | Some zombie ->
          Proc_runner.interrupt zombie;
          (match zombie.Proc.space with
          | Some space ->
              zombie.Proc.space <- None;
              Host.drop_space h1 space
          | None -> ());
          Host.remove_proc h1 zombie
      | None -> ());
      Checkpoint.restore
        ~cost_model:(restore_costs (World.host world 1 |> Host.costs))
        ~bus:world.World.bus store h1 ck
        ~k:(fun p ->
          restore_restart_at := Some (World.now world);
          p.Proc.on_complete <-
            Some
              (fun p ->
                completed_at := Some (World.now world);
                let touched =
                  match p.Proc.space with
                  | Some space -> Accent_mem.Address_space.touched_pages space
                  | None -> 0
                in
                Mig_event.publish world.World.bus
                  {
                    Mig_event.at = World.now world;
                    proc_id;
                    kind =
                      Mig_event.Outcome
                        {
                          outcome = Report.Completed;
                          remote_touched_pages = touched;
                        };
                  });
          Mig_event.publish world.World.bus
            { Mig_event.at = World.now world; proc_id; kind = Mig_event.Restarted };
          Proc_runner.start h1 p)
    end
  in
  World.on_migration_event world (fun ev ->
      if ev.Mig_event.proc_id = proc_id then
        match ev.Mig_event.kind with
        | Mig_event.Outcome _ ->
            if !completed_at = None then completed_at := Some ev.Mig_event.at
        | Mig_event.Transport_give_up | Mig_event.Engine_abort _ ->
            trigger_restore ()
        | _ -> ());
  (* The crash: at [kill_ms] the link partitions (fault plan), the source's
     backing server dies with its host, and the source incarnation stops
     executing (if it is still there and still running). *)
  ignore
    (Engine.schedule world.World.engine ~delay:(Time.ms kill_ms) (fun () ->
         (match proc.Proc.space with
         | Some _ when proc.Proc.finished_at = None -> Proc_runner.interrupt proc
         | _ -> ());
         Backing_server.fail (Migration_manager.backing (World.manager world 0))));
  if Strategy.is_live strategy then Proc_runner.start h0 proc;
  let r =
    Migration_manager.migrate (World.manager world 0) ~proc
      ~dest:(Migration_manager.port (World.manager world 1))
      ~strategy ()
  in
  Option.iter (Report.apply r) !checkpointed;
  ignore (World.run world);
  (* Some crash modes produce no give-up — e.g. the destination restarted
     before the kill and its incarnation was then killed by the pager's
     fault timeout against the dead backing server.  Recover those too. *)
  if !completed_at = None && not !recovering then begin
    trigger_restore ();
    ignore (World.run world)
  end;
  World.audit world;
  let recovered = !recovering in
  let completed = !completed_at <> None in
  let kill_s = kill_ms /. 1000. in
  let stop_s =
    (* when the program last executed anywhere *)
    match r.Report.frozen_at with
    | Some f -> Float.min (Time.to_seconds f) kill_s
    | None ->
        if Strategy.is_live strategy then kill_s
        else
          Option.fold ~none:0. ~some:Time.to_seconds r.Report.requested_at
  in
  let recovery_downtime_s =
    if recovered then
      match !restore_restart_at with
      | Some at -> Time.to_seconds at -. stop_s
      | None -> Float.max 0. (Time.to_seconds (World.now world) -. stop_s)
    else Report.downtime_seconds r
  in
  {
    strategy;
    seed;
    kill_frac;
    kill_ms;
    recovered;
    completed;
    integrity_ok = Content_store.verify store;
    recovery_downtime_s;
    clean_downtime_s;
    checkpoint_pages = Checkpoint.pages ck;
    report = r;
  }

let run ?(seed = 42L) ?(seeds = 3) ?(spec = Accent_workloads.Representative.pm_start)
    ?(kill_fracs = default_kill_fracs) ?strategies () =
  let strategies =
    match strategies with Some s -> s | None -> default_strategies ()
  in
  let trials =
    List.concat_map
      (fun strategy ->
        List.concat_map
          (fun i ->
            let seed = Int64.add seed (Int64.of_int i) in
            (* The crash-free twin calibrates both the kill points (the
               window from request to destination restart) and the clean
               downtime the recovery numbers are compared against. *)
            let clean = Trial.run ~seed ~spec ~strategy () in
            let cr = clean.Trial.report in
            let window_ms =
              match (cr.Report.requested_at, cr.Report.restarted_at) with
              | Some a, Some b -> Float.max 1. (Time.to_ms (Time.diff b a))
              | _ -> 1000.
            in
            let clean_downtime_s = Report.downtime_seconds cr in
            List.map
              (fun kill_frac ->
                crash_trial ~seed ~spec ~strategy ~kill_frac
                  ~kill_ms:(kill_frac *. window_ms) ~clean_downtime_s)
              kill_fracs)
          (List.init seeds Fun.id))
      strategies
  in
  let summaries =
    List.map
      (fun strategy ->
        let mine =
          List.filter (fun (tr : trial) -> tr.strategy == strategy) trials
        in
        (* streamed, not retained: identical percentiles (exact mode)
           without materialising the per-strategy sample lists *)
        let downtimes = Accent_util.Stats.create () in
        let cleans = Accent_util.Stats.create () in
        List.iter
          (fun t ->
            Accent_util.Stats.add downtimes t.recovery_downtime_s;
            Accent_util.Stats.add cleans t.clean_downtime_s)
          mine;
        {
          strategy;
          trials = List.length mine;
          all_completed = List.for_all (fun t -> t.completed) mine;
          all_verified = List.for_all (fun t -> t.integrity_ok) mine;
          p50_s = Accent_util.Stats.percentile downtimes 50.;
          p99_s = Accent_util.Stats.percentile downtimes 99.;
          clean_p50_s = Accent_util.Stats.percentile cleans 50.;
        })
      strategies
  in
  { spec; seed; kill_fracs; trials; summaries }

let to_csv t =
  let header =
    Result_table.csv_line
      [
        "strategy";
        "seed";
        "kill_frac";
        "kill_ms";
        "recovered";
        "completed";
        "integrity_ok";
        "checkpoint_pages";
        "recovery_downtime_s";
        "clean_downtime_s";
      ]
  in
  let rows =
    List.map
      (fun (tr : trial) ->
        Result_table.csv_line
          [
            Strategy.name tr.strategy;
            Int64.to_string tr.seed;
            Printf.sprintf "%g" tr.kill_frac;
            Printf.sprintf "%.1f" tr.kill_ms;
            string_of_bool tr.recovered;
            string_of_bool tr.completed;
            string_of_bool tr.integrity_ok;
            string_of_int tr.checkpoint_pages;
            Printf.sprintf "%.3f" tr.recovery_downtime_s;
            Printf.sprintf "%.3f" tr.clean_downtime_s;
          ])
      t.trials
  in
  String.concat "\n" (header :: rows) ^ "\n"

let to_json t =
  let summary s =
    Printf.sprintf
      "{\"strategy\":%S,\"trials\":%d,\"p50_s\":%.3f,\"p99_s\":%.3f,\"clean_p50_s\":%.3f,\"all_completed\":%b,\"all_verified\":%b}"
      (Strategy.name s.strategy) s.trials s.p50_s s.p99_s s.clean_p50_s
      s.all_completed s.all_verified
  in
  Printf.sprintf
    "{\n\
    \  \"benchmark\": \"crash_recovery\",\n\
    \  \"spec\": %S,\n\
    \  \"seed\": %Ld,\n\
    \  \"kill_fracs\": [%s],\n\
    \  \"strategies\": [\n%s\n  ]\n\
     }\n"
    t.spec.Accent_workloads.Spec.name t.seed
    (String.concat ", "
       (List.map (Printf.sprintf "%g") t.kill_fracs))
    (String.concat ",\n"
       (List.map (fun s -> "    " ^ summary s) t.summaries))

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Crash recovery: %s, source killed mid-migration (seed %Ld, kill \
        points %s of the clean transfer window)\n"
       t.spec.Accent_workloads.Spec.name t.seed
       (String.concat "/"
          (List.map (fun f -> Printf.sprintf "%g%%" (100. *. f)) t.kill_fracs)));
  Buffer.add_string buf
    (Printf.sprintf "  %-12s %7s %12s %12s %12s %10s %10s\n" "strategy"
       "trials" "p50 (s)" "p99 (s)" "clean (s)" "completed" "verified");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %-12s %7d %12.2f %12.2f %12.2f %10s %10s\n"
           (Strategy.name s.strategy) s.trials s.p50_s s.p99_s s.clean_p50_s
           (if s.all_completed then "all" else "NOT ALL")
           (if s.all_verified then "all" else "NOT ALL")))
    t.summaries;
  Buffer.contents buf
