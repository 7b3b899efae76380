(* Automatic migration — the §6 future-work direction, end to end.

   Six compute-bound workers all start on host 0 of a three-host testbed.
   Co-located processes contend for the CPU, so left alone they finish
   late.  The Auto_migrator daemon samples loads, notices the imbalance,
   and relocates workers with copy-on-reference shipment until things even
   out.  We run the cluster both ways and compare makespans.

   Run with: dune exec examples/auto_balance.exe *)

open Accent_core
open Accent_kernel

let worker i =
  {
    Accent_workloads.Spec.name = Printf.sprintf "job%d" i;
    description = "compute-bound batch job";
    real_bytes = 128 * 1024;
    total_bytes = 512 * 1024;
    rs_bytes = 64 * 1024;
    touched_real_pages = 100;
    rs_touched_overlap = 70;
    real_runs = 5;
    vm_segments = 3;
    pattern =
      Accent_workloads.Access_pattern.Hot_cold
        { hot_fraction = 0.4; hot_prob = 0.85 };
    refs = 800;
    total_think_ms = 40_000.;
    zero_touch_pages = 4;
    base_addr = 0x40000 + (i * 4 * 1024 * 1024);
  }

let run_cluster ~balanced =
  let world = World.create ~n_hosts:3 () in
  let h0 = World.host world 0 in
  let procs = List.init 6 (fun i -> Accent_workloads.Spec.build h0 (worker i)) in
  List.iter (fun p -> Proc_runner.start h0 p) procs;
  (* the daemon publishes each move it makes on the world's event bus *)
  let decisions = ref [] in
  World.on_migration_event world (fun ev ->
      match ev.Mig_event.kind with
      | Mig_event.Auto_candidate { proc_name; src; dst } ->
          decisions := (ev.Mig_event.at, proc_name, src, dst) :: !decisions
      | _ -> ());
  if balanced then
    ignore
      (Auto_migrator.start world
         {
           Auto_migrator.default_policy with
           Auto_migrator.period_ms = 2_000.;
           max_migrations = 4;
         });
  ignore (World.run world);
  let makespan = Accent_sim.Time.to_seconds (World.now world) in
  (world, List.rev !decisions, makespan)

let () =
  let _, _, alone = run_cluster ~balanced:false in
  let world, decisions, balanced = run_cluster ~balanced:true in
  Format.printf "six workers, all started on host0 of a 3-host cluster:@.";
  Format.printf "  unmanaged makespan:  %.1fs@." alone;
  Format.printf "  with auto-migrator:  %.1fs (%.0f%% faster)@." balanced
    (100. *. (alone -. balanced) /. alone);
  Format.printf "  decisions taken:@.";
  List.iter
    (fun (at, name, src, dst) ->
      Format.printf "    t=%5.1fs  %s: host%d -> host%d@."
        (Accent_sim.Time.to_seconds at)
        name src dst)
    decisions;
  Format.printf "  final placement: %s@."
    (String.concat " "
       (List.map
          (fun i ->
            Printf.sprintf "host%d=%d" i
              (Host.proc_count (World.host world i)))
          [ 0; 1; 2 ]))
