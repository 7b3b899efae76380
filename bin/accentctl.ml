(* accentctl: command-line driver for the Accent migration testbed.
   `accentctl migrate --workload lisp-del --strategy iou --prefetch 3`
   runs one trial and prints its report. *)

open Cmdliner

(* Write [contents] to [path], closing the file even if the write raises,
   and say so on stdout. *)
let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  Printf.printf "\nwrote %s\n" path

let strategy_of_string name prefetch =
  match String.lowercase_ascii name with
  | "copy" | "pure-copy" -> Ok Accent_core.Strategy.pure_copy
  | "iou" | "pure-iou" -> Ok (Accent_core.Strategy.pure_iou ~prefetch ())
  | "rs" | "resident-set" ->
      Ok (Accent_core.Strategy.resident_set ~prefetch ())
  | "precopy" | "pre-copy" -> Ok (Accent_core.Strategy.pre_copy ())
  | "ws" | "working-set" -> Ok (Accent_core.Strategy.working_set ~prefetch ())
  | "hybrid" -> Ok (Accent_core.Strategy.hybrid ())
  | other -> Error (Printf.sprintf "unknown strategy %S" other)

let workload_arg =
  let doc =
    "Representative process: minprog, lisp-t, lisp-del, pm-start, pm-mid, \
     pm-end, chess."
  in
  Arg.(value & opt string "minprog" & info [ "w"; "workload" ] ~doc)

let strategy_arg =
  let doc = "Transfer strategy: copy, iou, rs, ws, precopy, or hybrid." in
  Arg.(value & opt string "iou" & info [ "s"; "strategy" ] ~doc)

let prefetch_arg =
  let doc = "Pages to prefetch per imaginary fault (0, 1, 3, 7, 15)." in
  Arg.(value & opt int 0 & info [ "p"; "prefetch" ] ~doc)

let seed_arg =
  let doc = "Deterministic simulation seed." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~doc)

let loss_arg =
  let doc =
    "I.i.d. fragment loss rate in percent (0-100).  Any value, even 0, \
     switches the NetMsgServers to the reliable sliding-window transport."
  in
  Arg.(value & opt (some float) None & info [ "loss" ] ~docv:"PCT" ~doc)

let partition_arg =
  let doc =
    "Scheduled network partition $(docv) in milliseconds: every fragment \
     between the hosts during the window is dropped, after which the \
     partition heals.  Enables the reliable transport."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "partition" ] ~docv:"START:DUR" ~doc)

(* --loss and --partition compose into one fault plan; either alone (and
   --loss 0) still turns the ARQ transport on. *)
let fault_plan_of ~loss ~partition =
  match (loss, partition) with
  | None, None -> Ok None
  | _ -> (
      let plan =
        match loss with
        | Some pct when pct < 0. || pct > 100. ->
            Printf.eprintf "--loss must be between 0 and 100\n";
            exit 1
        | Some pct -> Accent_net.Fault_plan.iid (pct /. 100.)
        | None -> Accent_net.Fault_plan.none
      in
      match partition with
      | None -> Ok (Some plan)
      | Some s -> (
          match String.split_on_char ':' s with
          | [ a; b ] -> (
              match (float_of_string_opt a, float_of_string_opt b) with
              | Some start_ms, Some duration_ms
                when start_ms >= 0. && duration_ms >= 0. ->
                  Ok
                    (Some
                       (Accent_net.Fault_plan.with_partition ~start_ms
                          ~duration_ms plan))
              | _ -> Error "bad --partition: START and DUR must be numbers")
          | _ -> Error "bad --partition: expected START:DUR in milliseconds"))

let migrate workload strategy prefetch seed loss partition =
  match Accent_workloads.Representative.by_name workload with
  | None ->
      Printf.eprintf "unknown workload %S\n" workload;
      exit 1
  | Some spec -> (
      match
        (strategy_of_string strategy prefetch, fault_plan_of ~loss ~partition)
      with
      | Error e, _ | _, Error e ->
          prerr_endline e;
          exit 1
      | Ok strategy, Ok fault_plan ->
          let result =
            Accent_experiments.Trial.run ~seed ?fault_plan ~spec ~strategy ()
          in
          Format.printf "%a@.@." Accent_core.Report.pp_summary
            result.Accent_experiments.Trial.report;
          print_string
            (Accent_experiments.Result_table.text
               (Accent_experiments.Utilization.table
                  ~duration_s:
                    (Accent_core.Report.end_to_end_seconds
                       result.Accent_experiments.Trial.report)
                  result.Accent_experiments.Trial.world)))

let migrate_cmd =
  let doc = "migrate one representative process and report the trial" in
  Cmd.v
    (Cmd.info "migrate" ~doc)
    Term.(
      const migrate $ workload_arg $ strategy_arg $ prefetch_arg $ seed_arg
      $ loss_arg $ partition_arg)

let csv_arg =
  let doc = "Also write machine-readable CSVs of every table and figure \
             into $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let tables_cmd =
  let doc = "regenerate every table and figure of the paper's evaluation" in
  Cmd.v
    (Cmd.info "evaluate" ~doc)
    Term.(
      const (fun csv_dir ->
          Accent_experiments.Evaluation.run_all ?csv_dir ())
      $ csv_arg)

let inspect workload loss partition =
  match Accent_workloads.Representative.by_name workload with
  | None ->
      Printf.eprintf "unknown workload %S\n" workload;
      exit 1
  | Some spec ->
      let fault_plan =
        match fault_plan_of ~loss ~partition with
        | Ok p -> p
        | Error e ->
            prerr_endline e;
            exit 1
      in
      let world, proc =
        Accent_experiments.Trial.build_only ?fault_plan ~spec ()
      in
      let space = Accent_kernel.Proc.space_exn proc in
      let open Accent_mem in
      Format.printf "%s — %s@.@." spec.Accent_workloads.Spec.name
        spec.Accent_workloads.Spec.description;
      Format.printf "composition at migration point:@.";
      Format.printf "  RealMem   %11s  (%d pages, %d resident)@."
        (Accent_util.Bytesize.with_commas (Address_space.real_bytes space))
        (Address_space.pages_materialized space)
        (Address_space.resident_page_count space);
      Format.printf "  RealZero  %11s@."
        (Accent_util.Bytesize.with_commas (Address_space.zero_bytes space));
      Format.printf "  Total     %11s in %d regions, %d VM segments@."
        (Accent_util.Bytesize.with_commas (Address_space.total_bytes space))
        (Address_space.region_count space)
        (Address_space.vm_segment_count space);
      let trace = proc.Accent_kernel.Proc.trace in
      Format.printf "@.post-migration behaviour:@.";
      Format.printf "  %d references over %d distinct pages, %.1fs of compute@."
        (Accent_kernel.Trace.length trace)
        (Accent_kernel.Trace.distinct_pages trace)
        (Accent_kernel.Trace.total_think_ms trace /. 1000.);
      let amap = Address_space.build_amap space in
      Format.printf "@.AMap: %d entries, %s on the wire@."
        (Amap.entry_count amap)
        (Accent_util.Bytesize.to_string (Amap.wire_size amap));
      let open Accent_net in
      let link = world.Accent_core.World.link in
      let lp = Link.params_of link in
      Format.printf "@.network link:@.";
      Format.printf
        "  %.1f Mbit/s, %.1f ms latency, %d B fragments (+%d B header)@."
        (lp.Link.bytes_per_ms *. 8. /. 1000.)
        lp.Link.latency_ms Link.fragment_bytes Link.fragment_overhead_bytes;
      (match
         Netmsgserver.reliability
           (Accent_kernel.Host.nms (Accent_core.World.host world 0))
       with
      | None ->
          Format.printf
            "  transport: 1987 stop-and-wait pipeline (window %d), reliable \
             wire assumed@."
            world.Accent_core.World.costs.Accent_kernel.Cost_model.nms
              .Netmsgserver.flow_window
      | Some _ ->
          Format.printf
            "  transport: sliding-window ARQ — window %d, %d B acks, RTO \
             %.0f ms ×%.1f up to %.0f ms, %d retries@."
            Reliable.window Reliable.ack_bytes Reliable.initial_rto_ms
            Reliable.rto_backoff Reliable.max_rto_ms Reliable.max_retries);
      Format.printf "  fault plan: @[<v>%a@]@." Fault_plan.pp
        (Option.value (Link.fault_plan link) ~default:Fault_plan.none)

let workloads () =
  let module R = Accent_experiments.Result_table in
  let module Spec = Accent_workloads.Spec in
  let size =
    R.Custom (fun v -> Accent_util.Bytesize.to_string (int_of_float v))
  in
  print_string
    (R.text
       (R.table "The seven representative processes (paper Section 4.1)"
          ~keys:[ ("name", "name") ]
          [
            R.column "Real" "real_bytes" size;
            R.column "Total" "total_bytes" size;
            R.column "RS" "rs_bytes" size;
            R.column "touched" "touched_pct" (Custom (Printf.sprintf "%.0f%%"));
            R.column "description" "description" (Text Left);
          ]
          (List.map
             (fun (spec : Spec.t) ->
               R.row [ spec.name ]
                 (List.map R.measured
                    [
                      float_of_int spec.real_bytes;
                      float_of_int spec.total_bytes;
                      float_of_int spec.rs_bytes;
                      100.
                      *. float_of_int spec.touched_real_pages
                      /. float_of_int (Spec.real_pages spec);
                    ]
                 @ [ R.Label spec.description ]))
             Accent_workloads.Representative.all)))

let workloads_cmd =
  let doc = "list the representative workloads" in
  Cmd.v (Cmd.info "workloads" ~doc) Term.(const workloads $ const ())

let inspect_cmd =
  let doc =
    "show a representative workload's reconstructed state and the network \
     configuration it would migrate over"
  in
  Cmd.v
    (Cmd.info "inspect" ~doc)
    Term.(const inspect $ workload_arg $ loss_arg $ partition_arg)

let losssweep workload seed csv =
  let spec =
    match Accent_workloads.Representative.by_name workload with
    | Some spec -> spec
    | None ->
        Printf.eprintf "unknown workload %S\n" workload;
        exit 1
  in
  let t = Accent_experiments.Loss_sweep.run ~seed ~spec () in
  print_string (Accent_experiments.Loss_sweep.render t);
  match csv with
  | None -> ()
  | Some path -> write_file path (Accent_experiments.Loss_sweep.to_csv t)

let losssweep_workload_arg =
  let doc = "Representative process to sweep (default pm-start)." in
  Arg.(value & opt string "pm-start" & info [ "w"; "workload" ] ~doc)

let losssweep_csv_arg =
  let doc = "Also write the sweep as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let losssweep_cmd =
  let doc =
    "re-run the Figure 4-3 byte comparison across fragment loss rates with \
     the reliable transport enabled"
  in
  Cmd.v
    (Cmd.info "losssweep" ~doc)
    Term.(
      const losssweep $ losssweep_workload_arg $ seed_arg $ losssweep_csv_arg)

let dedupsweep workload seed csv =
  let spec =
    match Accent_workloads.Representative.by_name workload with
    | Some spec -> spec
    | None ->
        Printf.eprintf "unknown workload %S\n" workload;
        exit 1
  in
  let t = Accent_experiments.Dedup_sweep.run ~seed ~spec () in
  print_string (Accent_experiments.Dedup_sweep.render t);
  match csv with
  | None -> ()
  | Some path -> write_file path (Accent_experiments.Dedup_sweep.to_csv t)

let dedupsweep_cmd =
  let doc =
    "measure the wire bytes the content-addressed (digest-first) transfer \
     saves when migrating to a host that already holds part of the \
     process's pages"
  in
  Cmd.v
    (Cmd.info "dedupsweep" ~doc)
    Term.(
      const dedupsweep $ losssweep_workload_arg $ seed_arg $ losssweep_csv_arg)

let trace workload strategy prefetch seed loss partition out pretty =
  match Accent_workloads.Representative.by_name workload with
  | None ->
      Printf.eprintf "unknown workload %S\n" workload;
      exit 1
  | Some spec -> (
      match
        (strategy_of_string strategy prefetch, fault_plan_of ~loss ~partition)
      with
      | Error e, _ | _, Error e ->
          prerr_endline e;
          exit 1
      | Ok strategy, Ok fault_plan ->
          let oc, close =
            match out with
            | None -> (stdout, fun () -> flush stdout)
            | Some path ->
                let oc = open_out path in
                (oc, fun () -> close_out oc)
          in
          let on_event =
            if pretty then (
              let ppf = Format.formatter_of_out_channel oc in
              fun ev -> Format.fprintf ppf "%a@." Accent_core.Mig_event.pp ev)
            else Accent_core.Mig_event.jsonl_writer oc
          in
          let result =
            Fun.protect ~finally:close (fun () ->
                Accent_experiments.Trial.run ~seed ?fault_plan ~on_event ~spec
                  ~strategy ())
          in
          (match out with
          | Some path -> Printf.eprintf "wrote %s\n" path
          | None -> ());
          ignore result.Accent_experiments.Trial.report)

let trace_out_arg =
  let doc = "Write the trace to $(docv) instead of standard output." in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let trace_pretty_arg =
  let doc = "Human-readable lines instead of JSONL." in
  Arg.(value & flag & info [ "pretty" ] ~doc)

let trace_cmd =
  let doc =
    "run one migration trial and stream every migration event as JSON lines"
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const trace $ workload_arg $ strategy_arg $ prefetch_arg $ seed_arg
      $ loss_arg $ partition_arg $ trace_out_arg $ trace_pretty_arg)

let compare_workload workload prefetch seed =
  match Accent_workloads.Representative.by_name workload with
  | None ->
      Printf.eprintf "unknown workload %S\n" workload;
      exit 1
  | Some spec ->
      let open Accent_core in
      let module R = Accent_experiments.Result_table in
      let row strategy =
        let r =
          (Accent_experiments.Trial.run ~seed ~write_fraction:0.1 ~spec
             ~strategy ())
            .Accent_experiments.Trial.report
        in
        R.row [ Strategy.name strategy ]
          (List.map R.measured
             [
               Report.transfer_seconds r;
               Report.remote_execution_seconds r;
               Report.end_to_end_seconds r;
               Report.downtime_seconds r;
               float_of_int (Report.bytes_total r);
               float_of_int r.Report.dest_faults_imag;
             ])
      in
      print_string
        (R.text
           (R.table
              (Printf.sprintf "%s under every strategy"
                 spec.Accent_workloads.Spec.name)
              ~keys:[ ("strategy", "strategy") ]
              [
                R.column "transfer (s)" "transfer_s" (Fixed 2);
                R.column "exec (s)" "exec_s" (Fixed 2);
                R.column "end-to-end (s)" "end_to_end_s" (Fixed 2);
                R.column "downtime (s)" "downtime_s" (Fixed 2);
                R.column "bytes" "bytes" Bytes;
                R.column "faults" "faults" (Fixed 0);
              ]
              (List.map row
                 [
                   Strategy.pure_copy;
                   Strategy.pure_iou ~prefetch ();
                   Strategy.resident_set ~prefetch ();
                   Strategy.pre_copy ();
                   Strategy.hybrid ();
                 ])))

let compare_cmd =
  let doc = "run one workload under every strategy and tabulate" in
  Cmd.v
    (Cmd.info "compare" ~doc)
    Term.(const compare_workload $ workload_arg $ prefetch_arg $ seed_arg)

(* --- the cluster runtime ------------------------------------------------ *)

let cluster hosts jobs churn policy domains seed json =
  if churn <= 0. then begin
    (* the batch table has no JSON form, compares its own fixed policy
       set and runs in one domain: refuse these flags rather than
       silently ignore them *)
    let refuse msg =
      prerr_endline msg;
      exit 1
    in
    if json <> None then
      refuse
        "--json needs --churn: only the churn comparison is written as JSON";
    if policy <> None then
      refuse
        "--policy needs --churn: the batch table always compares its own \
         policies";
    if domains <> 1 then
      refuse "--domains needs --churn: the batch table runs in one domain";
    (* the original closed-batch experiment: a burst of jobs arriving on
       one host of a small cluster.  Bare `accentctl cluster` reproduces
       the classic 3-host policy table. *)
    let config =
      {
        Accent_experiments.Cluster_scenario.default_config with
        Accent_experiments.Cluster_scenario.n_hosts =
          Option.value ~default:3 hosts;
        n_jobs = Option.value ~default:6 jobs;
        seed;
      }
    in
    print_string
      (Accent_experiments.Cluster_scenario.render
         (Accent_experiments.Cluster_scenario.compare_policies ~config ()))
  end
  else begin
    (* the open workload: Poisson arrivals at --churn jobs/s cluster-wide,
       every placement policy compared on its own world *)
    let config =
      {
        Accent_experiments.Cluster_scenario.default_churn with
        Accent_experiments.Cluster_scenario.hosts =
          Option.value ~default:100 hosts;
        jobs = Option.value ~default:2_000 jobs;
        arrival_rate_per_s = churn;
        churn_seed = seed;
      }
    in
    let policies =
      match policy with
      | None ->
          Accent_experiments.Cluster_scenario.default_churn_policies ()
      | Some name -> (
          match Accent_core.Placement_policy.by_name name with
          | Some p -> [ p ]
          | None ->
              Printf.eprintf
                "unknown policy %S (threshold, destination-swap, random, \
                 static)\n"
                name;
              exit 1)
    in
    let results =
      Accent_experiments.Cluster_scenario.compare_churn ~config ~domains
        ~policies ()
    in
    print_string
      (Accent_experiments.Cluster_scenario.render_churn results);
    match json with
    | None -> ()
    | Some path ->
        write_file path
          (Printf.sprintf
             "{\n  \"benchmark\": \"cluster\",\n  \"mode\": \"ctl\",\n  \
              \"policies\": [\n%s\n  ]\n}\n"
             (String.concat ",\n"
                (List.map
                   (fun r ->
                     "    " ^ Accent_experiments.Cluster_scenario.churn_json r)
                   results)))
  end

let cluster_hosts_arg =
  let doc =
    "Cluster size (default: 3 for the batch table, 100 under --churn)."
  in
  Arg.(value & opt (some int) None & info [ "hosts" ] ~doc)

let cluster_jobs_arg =
  let doc =
    "Total jobs (default: 6 for the batch table, 2000 under --churn)."
  in
  Arg.(value & opt (some int) None & info [ "jobs" ] ~doc)

let cluster_churn_arg =
  let doc =
    "Cluster-wide Poisson arrival rate in jobs per second.  0 (the \
     default) runs the classic closed-batch comparison instead of the \
     open workload."
  in
  Arg.(value & opt float 0. & info [ "churn" ] ~docv:"RATE" ~doc)

let cluster_policy_arg =
  let doc =
    "Run only this placement policy (threshold, destination-swap, random, \
     static); default compares all four.  Requires --churn."
  in
  Arg.(value & opt (some string) None & info [ "policy" ] ~doc)

let cluster_domains_arg =
  let doc =
    "Fan the per-policy worlds over this many OCaml domains; more than 1 \
     requires --churn."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~doc)

let cluster_json_arg =
  let doc =
    "Also write the churn comparison as JSON to $(docv); requires --churn."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let cluster_cmd =
  let doc =
    "compare placement policies on a simulated cluster — the classic \
     3-host batch table by default, or the open Poisson workload at \
     datacenter scale with --churn"
  in
  Cmd.v
    (Cmd.info "cluster" ~doc)
    Term.(
      const cluster $ cluster_hosts_arg $ cluster_jobs_arg $ cluster_churn_arg
      $ cluster_policy_arg $ cluster_domains_arg $ seed_arg $ cluster_json_arg)

(* --- checkpoint / restore / crash recovery ------------------------------ *)

let checkpoint workload seed out =
  match Accent_workloads.Representative.by_name workload with
  | None ->
      Printf.eprintf "unknown workload %S\n" workload;
      exit 1
  | Some spec ->
      let open Accent_core in
      let world, proc = Accent_experiments.Trial.build_only ~seed ~spec () in
      let h0 = World.host world 0 in
      let store =
        Accent_net.Content_store.create
          ~capacity_pages:((Accent_workloads.Spec.real_pages spec * 2) + 256)
          ()
      in
      let ck =
        Checkpoint.save ~bus:world.World.bus ~at:(World.now world) store
          (Accent_kernel.Proc_image.capture h0 proc)
      in
      (match Checkpoint.write_file out store ck with
      | Ok () -> ()
      | Error reason ->
          prerr_endline reason;
          exit 1);
      let distinct =
        List.length (List.sort_uniq compare (Checkpoint.digests ck))
      in
      Printf.printf
        "checkpointed %s at its migration point: %d pages (%d distinct by \
         digest)\nwrote %s\n"
        (Checkpoint.proc_name ck) (Checkpoint.pages ck) distinct out

let ckpt_file_arg =
  let doc = "Checkpoint file." in
  Arg.(value & opt string "proc.ckpt" & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let checkpoint_cmd =
  let doc =
    "build a representative process at its migration point and save a \
     durable, digest-named image of it to a file"
  in
  Cmd.v
    (Cmd.info "checkpoint" ~doc)
    Term.(const checkpoint $ workload_arg $ seed_arg $ ckpt_file_arg)

let restore file seed =
  let open Accent_core in
  let world = World.create ~seed ~n_hosts:1 () in
  let h0 = World.host world 0 in
  let store = Accent_net.Content_store.create ~capacity_pages:65_536 () in
  let ck =
    match Checkpoint.read_file file store with
    | Ok ck -> ck
    | Error reason ->
        prerr_endline reason;
        exit 1
  in
  let finished = ref None in
  Checkpoint.restore ~bus:world.World.bus store h0 ck ~k:(fun p ->
      p.Accent_kernel.Proc.on_complete <-
        Some (fun _ -> finished := Some (World.now world));
      Accent_kernel.Proc_runner.start h0 p);
  ignore (World.run world);
  Printf.printf "restored %s from %s: %d pages digest-verified\n"
    (Checkpoint.proc_name ck) file (Checkpoint.pages ck);
  match !finished with
  | Some at ->
      Printf.printf "ran its remaining reference trace, done at %.2fs \
                     (virtual)\n"
        (Accent_sim.Time.to_seconds at)
  | None -> Printf.printf "process did not run to completion\n"

let restore_file_arg =
  let doc = "Checkpoint file written by $(b,accentctl checkpoint)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let restore_cmd =
  let doc =
    "rebuild a process from a checkpoint file (every page re-derived and \
     checked against its recorded digest) and run it to completion"
  in
  Cmd.v (Cmd.info "restore" ~doc) Term.(const restore $ restore_file_arg $ seed_arg)

let crashsweep workload seed seeds kills csv json =
  let spec =
    match Accent_workloads.Representative.by_name workload with
    | Some spec -> spec
    | None ->
        Printf.eprintf "unknown workload %S\n" workload;
        exit 1
  in
  let kill_fracs =
    match kills with
    | None -> Accent_experiments.Crash_recovery.default_kill_fracs
    | Some s -> (
        match
          List.map float_of_string_opt (String.split_on_char ',' s)
        with
        | fracs when List.for_all Option.is_some fracs && fracs <> [] ->
            List.map Option.get fracs
        | _ ->
            Printf.eprintf
              "bad --kills: expected comma-separated fractions, e.g. \
               0.25,0.5,0.75\n";
            exit 1)
  in
  let t =
    Accent_experiments.Crash_recovery.run ~seed ~seeds ~spec ~kill_fracs ()
  in
  print_string (Accent_experiments.Crash_recovery.render t);
  (match csv with
  | None -> ()
  | Some path -> write_file path (Accent_experiments.Crash_recovery.to_csv t));
  match json with
  | None -> ()
  | Some path -> write_file path (Accent_experiments.Crash_recovery.to_json t)

let crashsweep_seeds_arg =
  let doc = "Independent worlds per strategy." in
  Arg.(value & opt int 3 & info [ "seeds" ] ~doc)

let crashsweep_kills_arg =
  let doc =
    "Comma-separated kill points as fractions of the clean transfer window \
     (default 0.25,0.5,0.75)."
  in
  Arg.(value & opt (some string) None & info [ "kills" ] ~docv:"FRACS" ~doc)

let crashsweep_json_arg =
  let doc = "Also write the per-strategy summaries as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let crashsweep_cmd =
  let doc =
    "checkpoint, kill the source host mid-migration at swept kill points, \
     restore on the survivor; report p50/p99 recovery downtime vs. clean \
     migration for every strategy"
  in
  Cmd.v
    (Cmd.info "crashsweep" ~doc)
    Term.(
      const crashsweep $ losssweep_workload_arg $ seed_arg
      $ crashsweep_seeds_arg $ crashsweep_kills_arg $ losssweep_csv_arg
      $ crashsweep_json_arg)

let ablate_cmd =
  let doc = "run the design-choice ablations (bandwidth, caching, backer \
             load, memory pressure, strategy face-off)" in
  Cmd.v
    (Cmd.info "ablate" ~doc)
    Term.(const (fun () -> Accent_experiments.Ablations.run_all ()) $ const ())

let claims_cmd =
  let doc = "measure the paper's scalar claims at seeds 1..5" in
  Cmd.v (Cmd.info "claims" ~doc)
    Term.(
      const (fun () ->
          print_string
            Accent_experiments.Claims.(render_replication (replicate ()));
          print_newline ())
      $ const ())

let main_cmd =
  let doc = "Accent copy-on-reference process migration testbed" in
  Cmd.group (Cmd.info "accentctl" ~doc)
    [
      migrate_cmd;
      trace_cmd;
      tables_cmd;
      ablate_cmd;
      claims_cmd;
      inspect_cmd;
      compare_cmd;
      workloads_cmd;
      losssweep_cmd;
      dedupsweep_cmd;
      cluster_cmd;
      checkpoint_cmd;
      restore_cmd;
      crashsweep_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
