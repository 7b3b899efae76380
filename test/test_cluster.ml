(* The datacenter-scale cluster runtime: placement policies as pure
   functions on synthetic snapshots, the domain-parallel sweep harness
   against its sequential twin, and the empty-series guards that
   zero-migration runs lean on. *)
open Accent_core

(* --- synthetic snapshots ------------------------------------------------- *)

let cand ?(affinity = fun _ -> 0.) ~id ~host () =
  {
    Placement_policy.proc_id = id;
    proc_name = Printf.sprintf "p%d" id;
    host;
    affinity;
  }

let snap ?(rng = Accent_util.Rng.create 7L) ~loads movable =
  { Placement_policy.loads; movable; rng }

let no_movable _ = []

let test_threshold_balanced () =
  (* spread below the threshold: no actions at all *)
  let s = snap ~loads:[| 1.0; 1.0; 2.0 |] no_movable in
  Alcotest.(check int) "quiet" 0
    (List.length (Placement_policy.decide (Placement_policy.threshold ()) s))

let test_threshold_observe_without_victim () =
  (* crossing with nothing movable still observes — the event stream the
     pre-refactor daemon published *)
  let s = snap ~loads:[| 4.0; 0.0 |] no_movable in
  match Placement_policy.decide (Placement_policy.threshold ()) s with
  | [ Placement_policy.Observe { src; spread } ] ->
      Alcotest.(check int) "busiest host" 0 src;
      Alcotest.(check (float 1e-9)) "full spread" 4.0 spread
  | _ -> Alcotest.fail "expected exactly one Observe"

let test_threshold_moves_first_movable () =
  let v0 = cand ~id:10 ~host:0 () and v1 = cand ~id:11 ~host:0 () in
  let s =
    snap ~loads:[| 4.0; 1.0; 0.5 |] (function
      | 0 -> [ v0; v1 ]
      | _ -> [])
  in
  match Placement_policy.decide (Placement_policy.threshold ()) s with
  | [ Placement_policy.Observe _; Placement_policy.Move d ] ->
      Alcotest.(check int) "first movable is the victim" 10
        d.Placement_policy.victim.Placement_policy.proc_id;
      Alcotest.(check int) "from the busiest" 0 d.Placement_policy.src;
      Alcotest.(check int) "to the least-loaded" 2 d.Placement_policy.dst
  | _ -> Alcotest.fail "expected Observe then Move"

let test_threshold_affinity_redirects () =
  (* host 1 is slightly busier than host 2, but the victim's memory lives
     there: affinity_weight 2 overcomes the 0.5 load gap *)
  let v =
    cand ~id:5 ~host:0 ~affinity:(fun h -> if h = 1 then 1.0 else 0.) ()
  in
  let s =
    snap ~loads:[| 4.0; 1.0; 0.5 |] (function 0 -> [ v ] | _ -> [])
  in
  match Placement_policy.decide (Placement_policy.threshold ()) s with
  | [ _; Placement_policy.Move d ] ->
      Alcotest.(check int) "pulled to the backer" 1 d.Placement_policy.dst
  | _ -> Alcotest.fail "expected Observe then Move"

let test_threshold_tie_breaks_low_index () =
  let v = cand ~id:5 ~host:1 () in
  let s =
    snap ~loads:[| 1.0; 4.0; 1.0; 1.0 |] (function 1 -> [ v ] | _ -> [])
  in
  match Placement_policy.decide (Placement_policy.threshold ()) s with
  | [ _; Placement_policy.Move d ] ->
      Alcotest.(check int) "earliest of the tied hosts" 0
        d.Placement_policy.dst
  | _ -> Alcotest.fail "expected Observe then Move"

let test_swap_pairs_and_swaps_back () =
  (* 4 hosts: 0 busiest pairs with 3, 1 with 2.  Host 3 holds a process
     whose memory is backed by host 0 — it must ride back. *)
  let out = cand ~id:1 ~host:0 () in
  let back =
    cand ~id:2 ~host:3 ~affinity:(fun h -> if h = 0 then 0.9 else 0.) ()
  in
  let mid = cand ~id:3 ~host:1 () in
  let s =
    snap
      ~loads:[| 6.0; 4.0; 1.0; 0.0 |]
      (function 0 -> [ out ] | 3 -> [ back ] | 1 -> [ mid ] | _ -> [])
  in
  let actions =
    Placement_policy.decide (Placement_policy.destination_swap ()) s
  in
  let moves =
    List.filter_map
      (function Placement_policy.Move d -> Some d | _ -> None)
      actions
  in
  Alcotest.(check int) "three moves: two pairs plus the swap-back" 3
    (List.length moves);
  let find id =
    List.find
      (fun d -> d.Placement_policy.victim.Placement_policy.proc_id = id)
      moves
  in
  Alcotest.(check int) "busiest sheds to idlest" 3 (find 1).Placement_policy.dst;
  Alcotest.(check int) "swap leg returns to the backer" 0
    (find 2).Placement_policy.dst;
  Alcotest.(check int) "second pair levels too" 2 (find 3).Placement_policy.dst

let test_swap_quiet_when_level () =
  let s = snap ~loads:[| 1.0; 1.0; 1.0; 1.0 |] no_movable in
  Alcotest.(check int) "level cluster, no actions" 0
    (List.length
       (Placement_policy.decide (Placement_policy.destination_swap ()) s))

let test_static_never_moves () =
  let v = cand ~id:1 ~host:0 () in
  let s = snap ~loads:[| 9.0; 0.0 |] (function 0 -> [ v ] | _ -> []) in
  Alcotest.(check int) "static is inert" 0
    (List.length (Placement_policy.decide (Placement_policy.static ()) s))

let test_random_deterministic () =
  (* same snapshot (same rng seed) → same decision; the baseline is
     random, not irreproducible *)
  let v0 = cand ~id:1 ~host:0 ()
  and v1 = cand ~id:2 ~host:1 ()
  and v2 = cand ~id:3 ~host:2 () in
  let movable = function 0 -> [ v0 ] | 1 -> [ v1 ] | 2 -> [ v2 ] | _ -> [] in
  let decide () =
    Placement_policy.decide (Placement_policy.random ())
      (snap ~rng:(Accent_util.Rng.create 11L) ~loads:[| 1.0; 1.0; 1.0 |]
         movable)
  in
  match (decide (), decide ()) with
  | [ Placement_policy.Move a ], [ Placement_policy.Move b ] ->
      Alcotest.(check int) "same victim" a.Placement_policy.victim.proc_id
        b.Placement_policy.victim.proc_id;
      Alcotest.(check int) "same destination" a.Placement_policy.dst
        b.Placement_policy.dst;
      Alcotest.(check bool) "never a self-move" true
        (a.Placement_policy.src <> a.Placement_policy.dst)
  | _ -> Alcotest.fail "expected one Move from each draw"

let test_by_name () =
  List.iter
    (fun (arg, expect) ->
      match Placement_policy.by_name arg with
      | Some p -> Alcotest.(check string) arg expect (Placement_policy.name p)
      | None -> Alcotest.fail (arg ^ " should resolve"))
    [
      ("threshold", "threshold");
      ("destination-swap", "destination-swap");
      ("swap", "destination-swap");
      ("random", "random");
      ("static", "static");
      ("none", "static");
    ];
  Alcotest.(check bool) "garbage rejected" true
    (Placement_policy.by_name "mystery" = None)

(* --- the default daemon's decision log, pinned --------------------------- *)

(* An imbalanced world run under the default policy (the threshold
   placement).  The log is the one the daemon produced before placement
   became a plain policy value, when the default built the classic
   balancer from the record's own knobs; it must not drift. *)
let test_default_decision_log_pinned () =
  let worker name base_mb =
    {
      Test_helpers.small_spec with
      Accent_workloads.Spec.name;
      refs = 300;
      total_think_ms = 30_000.;
      base_addr = base_mb * 1024 * 1024;
    }
  in
  let world = World.create ~n_hosts:3 () in
  let h0 = World.host world 0 in
  List.iter
    (fun p -> Accent_kernel.Proc_runner.start h0 p)
    (List.init 4 (fun i ->
         Accent_workloads.Spec.build h0
           (worker (Printf.sprintf "w%d" i) (1 + (8 * i)))));
  let decisions = Test_helpers.auto_candidates world in
  ignore
    (Auto_migrator.start world
       { Auto_migrator.default_policy with Auto_migrator.period_ms = 1_000. });
  ignore (World.run world);
  let show (at, name, src, dst) =
    Printf.sprintf "%.0f:%s:%d->%d" (Accent_sim.Time.to_ms at) name src dst
  in
  Alcotest.(check (list string))
    "decision log"
    [ "1000:w0:0->1"; "2000:w1:0->2"; "32000:w2:0->1" ]
    (List.map show (decisions ()))

(* --- the domain-parallel sweep vs its sequential twin --------------------- *)

let tiny_churn =
  {
    Accent_experiments.Cluster_scenario.default_churn with
    Accent_experiments.Cluster_scenario.hosts = 6;
    jobs = 30;
    arrival_rate_per_s = 10.;
    job_pages = 8;
    job_refs = 20;
    job_think_ms = 1_000.;
  }

let test_churn_counts () =
  let r =
    Accent_experiments.Cluster_scenario.run_churn ~config:tiny_churn
      ~policy:(Placement_policy.threshold ()) ()
  in
  Alcotest.(check int) "every job submitted" 30
    r.Accent_experiments.Cluster_scenario.jobs_submitted;
  Alcotest.(check int) "every job completed" 30
    r.Accent_experiments.Cluster_scenario.jobs_completed;
  Alcotest.(check bool) "clock advanced" true
    (r.Accent_experiments.Cluster_scenario.sim_s > 0.);
  Alcotest.(check bool) "downtime recorded iff migrations happened" true
    ((r.Accent_experiments.Cluster_scenario.migrations = 0)
    = (r.Accent_experiments.Cluster_scenario.downtime_samples = 0))

let test_churn_static_is_quiet () =
  let r =
    Accent_experiments.Cluster_scenario.run_churn ~config:tiny_churn
      ~policy:(Placement_policy.static ()) ()
  in
  Alcotest.(check int) "no migrations" 0
    r.Accent_experiments.Cluster_scenario.migrations;
  Alcotest.(check int) "no wire traffic" 0
    r.Accent_experiments.Cluster_scenario.wire_bytes;
  Alcotest.(check (float 1e-9)) "empty downtime series reports 0" 0.
    r.Accent_experiments.Cluster_scenario.downtime_ms_p99

(* The churn table of every default policy on the tiny config, byte for
   byte. *)
let test_churn_render_pinned () =
  let rendered =
    Accent_experiments.Cluster_scenario.render_churn
      (Accent_experiments.Cluster_scenario.compare_churn ~config:tiny_churn ())
  in
  Alcotest.(check string) "render_churn" "9bd378a1d4ed0f1b32c6f643468504b8"
    (Digest.to_hex (Digest.string rendered))

let sweep ~domains ~seeds =
  Accent_experiments.Cluster_scenario.churn_seed_sweep ~config:tiny_churn
    ~domains
    ~policy:(Placement_policy.threshold ())
    ~seeds ()

let test_parallel_sweep_identical () =
  let seeds = [ 1L; 2L; 3L ] in
  let seq = sweep ~domains:1 ~seeds in
  Alcotest.(check bool) "2 domains ≡ sequential" true
    (seq = sweep ~domains:2 ~seeds);
  Alcotest.(check bool) "4 domains ≡ sequential" true
    (seq = sweep ~domains:4 ~seeds)

let prop_parallel_sweep_identical =
  QCheck.Test.make ~count:4 ~name:"parallel churn sweep ≡ sequential"
    QCheck.(map Int64.of_int small_int)
    (fun seed ->
      let seeds = [ seed; Int64.add seed 1L ] in
      sweep ~domains:1 ~seeds = sweep ~domains:2 ~seeds)

(* --- Domain_pool --------------------------------------------------------- *)

let test_domain_pool_ordering () =
  let f i = i * i in
  let expect = Array.init 20 f in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "%d domains keep index order" domains)
        expect
        (Accent_util.Domain_pool.map ~domains ~jobs:20 f))
    [ 1; 2; 4 ];
  Alcotest.(check (array int)) "zero jobs" [||]
    (Accent_util.Domain_pool.map ~domains:4 ~jobs:0 f)

let test_domain_pool_exception () =
  Alcotest.check_raises "lowest-index exception wins"
    (Invalid_argument "job3") (fun () ->
      ignore
        (Accent_util.Domain_pool.map ~domains:2 ~jobs:8 (fun i ->
             if i >= 3 then invalid_arg (Printf.sprintf "job%d" i) else i)))

(* --- empty-series guards -------------------------------------------------- *)

(* --- allocation regression ----------------------------------------------- *)

(* The hot loop must be allocation-flat and the live heap must scale
   with cluster size, not job count: doubling the number of jobs through
   the same cluster may not raise words-per-event (churn is steady
   state) nor the post-run live heap (departed jobs release everything).
   The 1.1 slack absorbs amortized growth (hashtable resizes, the event
   queue finding its high-water mark) and fixed per-run setup; the base
   job count is large enough that those high-water marks have converged,
   so a per-job or per-migration retention of even a dozen words still
   trips the live-heap bound. *)
let test_allocation_flat_in_job_count () =
  let base =
    {
      Accent_experiments.Cluster_scenario.default_churn with
      Accent_experiments.Cluster_scenario.hosts = 4;
      jobs = 1_200;
      (* keep per-host utilization below 1 (rate/hosts × think ≈ 0.6):
         an overloaded cluster's backlog structures legitimately grow
         with job count, which would mask a real leak *)
      arrival_rate_per_s = 6.;
      job_pages = 8;
      job_refs = 20;
      job_think_ms = 400.;
    }
  in
  let run jobs =
    let _, gc =
      Accent_experiments.Cluster_scenario.run_churn_gc
        ~config:{ base with Accent_experiments.Cluster_scenario.jobs }
        ~policy:(Placement_policy.threshold ())
        ()
    in
    gc
  in
  let g1 = run 1_200 in
  let g2 = run 2_400 in
  let words_ratio =
    g2.Accent_experiments.Cluster_scenario.minor_words_per_event
    /. g1.Accent_experiments.Cluster_scenario.minor_words_per_event
  in
  let live_ratio =
    float_of_int g2.Accent_experiments.Cluster_scenario.live_words_after
    /. float_of_int g1.Accent_experiments.Cluster_scenario.live_words_after
  in
  Alcotest.(check bool)
    (Printf.sprintf "minor words/event flat in job count (ratio %.3f)"
       words_ratio)
    true (words_ratio <= 1.1);
  Alcotest.(check bool)
    (Printf.sprintf "live heap flat in job count (ratio %.3f)" live_ratio)
    true (live_ratio <= 1.1)

let test_stats_empty_series () =
  Alcotest.(check (float 1e-9)) "mean of empty" 0.
    (Accent_util.Stats.mean_of []);
  Alcotest.(check (float 1e-9)) "percentile of empty" 0.
    (Accent_util.Stats.percentile_of [] 99.);
  Alcotest.(check (float 1e-9)) "percentile of singleton" 7.
    (Accent_util.Stats.percentile_of [ 7. ] 99.)

let suite =
  ( "cluster",
    [
      Alcotest.test_case "threshold: balanced is quiet" `Quick
        test_threshold_balanced;
      Alcotest.test_case "threshold: observes without victim" `Quick
        test_threshold_observe_without_victim;
      Alcotest.test_case "threshold: moves first movable" `Quick
        test_threshold_moves_first_movable;
      Alcotest.test_case "threshold: affinity redirects" `Quick
        test_threshold_affinity_redirects;
      Alcotest.test_case "threshold: ties break low" `Quick
        test_threshold_tie_breaks_low_index;
      Alcotest.test_case "swap: pairs and swaps back" `Quick
        test_swap_pairs_and_swaps_back;
      Alcotest.test_case "swap: level is quiet" `Quick
        test_swap_quiet_when_level;
      Alcotest.test_case "static: inert" `Quick test_static_never_moves;
      Alcotest.test_case "random: deterministic" `Quick
        test_random_deterministic;
      Alcotest.test_case "by_name" `Quick test_by_name;
      Alcotest.test_case "default decision log pinned" `Quick
        test_default_decision_log_pinned;
      Alcotest.test_case "churn: counts" `Quick test_churn_counts;
      Alcotest.test_case "churn: render pinned" `Quick test_churn_render_pinned;
      Alcotest.test_case "churn: static quiet" `Quick
        test_churn_static_is_quiet;
      Alcotest.test_case "parallel sweep identical" `Quick
        test_parallel_sweep_identical;
      QCheck_alcotest.to_alcotest prop_parallel_sweep_identical;
      Alcotest.test_case "domain pool ordering" `Quick
        test_domain_pool_ordering;
      Alcotest.test_case "domain pool exception" `Quick
        test_domain_pool_exception;
      Alcotest.test_case "stats empty series" `Quick test_stats_empty_series;
      Alcotest.test_case "allocation flat in job count" `Quick
        test_allocation_flat_in_job_count;
    ] )
