(* The benchmark harness.

   It regenerates every table and figure of the paper's evaluation
   section (Tables 4-1..4-5, Figures 4-1..4-5) plus the headline-claims
   summary, by running the full 77-trial sweep on the simulated testbed,
   then the ablations and the replication across seeds.

   Run with: dune exec bench/main.exe
   (use --tables-only, --ablations-only or --replication-only to run one
   part) *)

(* --- Per-event tracing statistics ---------------------------------------

   Subscribed to every trial world's Mig_event bus while the sweep runs:
   each trial is a fresh world whose clock restarts near zero, so per-trial
   state resets on [Requested]. *)

module Event_stats = struct
  open Accent_core
  module Stats = Accent_util.Stats

  type t = {
    mutable events : int;
    mutable faults : int;
    mutable last_fault_ms : float option;
    interarrivals_ms : Stats.t;
        (* gaps between consecutive remote faults within one trial *)
    mutable rounds : int;
    mutable last_round : (int * float) option;
    round_gaps_ms : Stats.t;
        (* pacing between consecutive pre-copy rounds of one migration *)
    round_bytes : Stats.t;
  }

  let create () =
    {
      events = 0;
      faults = 0;
      last_fault_ms = None;
      interarrivals_ms = Stats.create ();
      rounds = 0;
      last_round = None;
      round_gaps_ms = Stats.create ();
      round_bytes = Stats.create ();
    }

  let observe t (ev : Mig_event.t) =
    t.events <- t.events + 1;
    let t_ms = Accent_sim.Time.to_ms ev.Mig_event.at in
    match ev.Mig_event.kind with
    | Mig_event.Requested _ ->
        t.last_fault_ms <- None;
        t.last_round <- None
    | Mig_event.Fault _ ->
        t.faults <- t.faults + 1;
        (match t.last_fault_ms with
        | Some prev when t_ms >= prev ->
            Stats.add t.interarrivals_ms (t_ms -. prev)
        | _ -> ());
        t.last_fault_ms <- Some t_ms
    | Mig_event.Precopy_round { round; bytes } ->
        t.rounds <- t.rounds + 1;
        Stats.add t.round_bytes (float_of_int bytes);
        (match t.last_round with
        | Some (r, prev) when round = r + 1 && t_ms >= prev ->
            Stats.add t.round_gaps_ms (t_ms -. prev)
        | _ -> ());
        t.last_round <- Some (round, t_ms)
    | _ -> ()

  (* Percentiles interpolate over the samples (exactly below
     [Stats.default_exact_capacity], within the sketch's relative error
     beyond it). *)
  let describe label s =
    if Stats.count s = 0 then Printf.printf "  %-28s (no samples)\n" label
    else
      Printf.printf
        "  %-28s n=%-6d mean %8.3f  p50 %8.3f  p95 %8.3f  max %8.3f\n" label
        (Stats.count s) (Stats.mean s) (Stats.percentile s 50.)
        (Stats.percentile s 95.) (Stats.max_value s)

  let render t =
    print_endline "Per-event tracing statistics (from the sweep's bus):";
    Printf.printf "  migration events observed     %d\n" t.events;
    Printf.printf "  faults observed               %d\n" t.faults;
    describe "fault interarrival (ms)" t.interarrivals_ms;
    Printf.printf "  pre-copy rounds observed      %d\n" t.rounds;
    describe "pre-copy round gap (ms)" t.round_gaps_ms;
    describe "pre-copy round bytes" t.round_bytes
end

(* The table sweep never runs pre-copy (the paper's strategies only), so
   round-pacing samples come from dedicated live-migration trials. *)
let precopy_trials stats =
  List.iter
    (fun name ->
      match Accent_workloads.Representative.by_name name with
      | None -> ()
      | Some spec ->
          ignore
            (Accent_experiments.Trial.run
               ~on_event:(Event_stats.observe stats)
               ~write_fraction:0.3 ~spec
               ~strategy:(Accent_core.Strategy.pre_copy ()) ()))
    [ "pm-mid"; "chess"; "lisp-del" ]

let run_tables ?csv_dir () =
  print_endline "=====================================================";
  print_endline " Reproduction of Zayas, \"Attacking the Process";
  print_endline " Migration Bottleneck\" (SOSP 1987) - evaluation";
  print_endline "=====================================================";
  print_newline ();
  let stats = Event_stats.create () in
  Accent_experiments.Evaluation.run_all ~progress:true
    ~on_event:(Event_stats.observe stats)
    ?csv_dir ();
  precopy_trials stats;
  print_newline ();
  Event_stats.render stats

let run_replication () =
  print_endline "=====================================================";
  print_endline " Replication across seeds";
  print_endline "=====================================================";
  print_newline ();
  print_string
    Accent_experiments.Claims.(render_replication (replicate ()));
  print_newline ()

let run_ablations () =
  print_endline "=====================================================";
  print_endline " Ablations and extensions (DESIGN.md sections 7)";
  print_endline "=====================================================";
  print_newline ();
  Accent_experiments.Ablations.run_all ();
  print_newline ()

let () =
  let args = Array.to_list Sys.argv in
  let only flag = List.mem flag args in
  let all =
    not
      (only "--tables-only" || only "--ablations-only"
      || only "--replication-only")
  in
  let rec csv_dir = function
    | "--csv" :: dir :: _ -> Some dir
    | _ :: rest -> csv_dir rest
    | [] -> None
  in
  let csv_dir = csv_dir args in
  if all || only "--tables-only" then run_tables ?csv_dir ();
  if all || only "--ablations-only" then begin
    print_newline ();
    run_ablations ()
  end;
  if all || only "--replication-only" then begin
    print_newline ();
    run_replication ()
  end
