(* The hot-path micro-benchmark: per-operation cost of the structures
   every simulated event leans on, measured in isolation so
   a regression cannot hide inside whole-trial noise.

     eviction storm    Phys_mem.allocate against a full pool — every
                       allocation evicts.  The claim under test: cost
                       per eviction is O(1) amortised — a FIFO pop
                       plus a cache-miss term on the frame table and
                       queue ring (the old linear victim scan was
                       O(frames); see docs/ARCHITECTURE.md §6 for the
                       measured curve).
     working-set churn Working_set queries against a long-lived
                       process — cost per query is flat in lifetime
                       footprint (the old fold was O(every page ever
                       referenced)).
     ARQ timer churn   Event_queue under the reliable transport's
                       push/cancel pattern — mass-cancelled backoff
                       timers must not accumulate (compaction), and
                       per-op cost stays O(log live).
     engine loop       Engine.run at 16, 1,024 and 65,536 pending
                       events, each fired event posting the next, and
                       at 1,024 in run ~limit slices — ns and minor
                       words per event (CI holds the words at 0.00).
     queue station     one Queue_server serving 10^5 jobs whose waits
                       spread from 1e-3 to 1e4 ms — ns and minor words
                       per job, and the words its wait accounting
                       retains after 10^3 and after 10^5 jobs (CI
                       holds the two equal).
     page checks       Page.digest on distinct Pattern pages (a memo
                       miss, then a hit) and Page.checksum_value, the
                       wire re-check — per page, no buffer built; then
                       one 32,768-page Gen run through Page_run.digests
                       (cold, warm) and Page_run.checksums — ns and
                       minor words per page (CI holds warm digests and
                       checksums at 0.00 words).
     ARQ acks          one message through two Reliable endpoints on a
                       clean link — cost per in-order fragment is flat
                       in message length (an ack walks top - cum + 1
                       bitmap slots, not the whole message).
     reference path    the pager's no-fault reference
                       (Address_space.reference plus
                       Working_set.reference) round-robin over many
                       live spaces — ns and minor words per reference,
                       with the page-table probe missing cache.
     interval map      Interval_map at 16, 1,024 and 65,536 intervals:
                       a one-page set inside a region and back (the
                       fault path's materialize), a point find, and a
                       fold_pieces over 64 pieces — ns and minor words
                       per operation.
     segment read      Content_store.read_run of 16 pages starting
                       mid-extent, in segments of 1, 64 and 512
                       eight-page extents — the backer's service of
                       one Imaginary Read Request — ns and minor words
                       per page read.
     footprint         the heap words one churn-shaped job retains
                       (built on one host, before its first step), and
                       the words an Interval_map holds at 1, 2, 5 and 9
                       intervals (CI holds both at or below the
                       committed rows); then set and clear at random
                       positions in maps of 1k, 16k and 64k intervals
                       (reported only: a splice still moves the tail).
     job build         Spec.build of a churn job, of each representative
                       and of the lossy-wire image (32,768 real pages,
                       and 2,048, the only size a smoke run builds),
                       each on a fresh one-host world — ns and minor
                       words per build (CI holds the words at or below
                       the committed rows).
     int tables        Int_tbl beside the generic (int, int) Hashtbl.t
                       at 1k, 32k and 1M keys: find (hit and miss),
                       replace of a present key, insert with growth and
                       remove — ns and minor words per operation (CI
                       holds Int_tbl's hit and replace at 0.00 words).

   Results land in BENCH_hotpath.json next to BENCH_scale.json.

   Run with:  dune exec bench/hotpath.exe            (full sweep)
              dune exec bench/hotpath.exe -- --smoke (tiny sweep, for CI) *)

open Accent_mem

(* Each benchmark prints its line on stdout and returns its JSON row. *)

(* --- eviction storm ---------------------------------------------------- *)

(* Fill the pool, then allocate [ops] more pages: each allocation must
   evict the LRU frame.  Once the pool is full the live frame-id set
   is stable (the victim's id is immediately reused), so interleaved
   touches — which exercise the lazy-invalidation path — stay valid. *)
let eviction_storm ~pool ~ops =
  let mem = Phys_mem.create ~frames:pool in
  Phys_mem.set_evict_handler mem (fun ~space_id:_ ~page:_ _ ~dirty:_ -> ());
  for i = 0 to pool - 1 do
    ignore
      (Phys_mem.allocate mem ~space_id:0 ~page:i Page.zero_value)
  done;
  let m =
    Harness.measure (fun () ->
        for i = 0 to ops - 1 do
          Phys_mem.touch mem (i * 7919 mod pool);
          ignore
            (Phys_mem.allocate mem
               ~space_id:0 ~page:(pool + i)
               Page.zero_value)
        done)
  in
  assert (Phys_mem.evictions mem = ops);
  let ns = Harness.ns_per m ops in
  Printf.printf "hotpath: evict  pool %6d  %8d ops  %7.1f ns/op\n%!" pool ops
    ns;
  Printf.sprintf
    {|{"pool_frames": %d, "evictions": %d, "wall_s": %.4f, "ns_per_eviction": %.1f}|}
    pool ops m.wall_s ns

(* --- working-set churn ------------------------------------------------- *)

(* Touch [footprint] distinct pages over a long virtual lifetime so
   only ~[tau] worth of them stay in-window, then interleave
   references and the three query forms the engines use at migration
   start.  The old fold paid O(footprint) per query. *)
let working_set_churn ~footprint ~queries =
  let tau = 1_000. in
  let dt = tau /. 512. in
  let ws = Working_set.create ~window:tau in
  let clock = [| 0. |] in
  for i = 0 to footprint - 1 do
    clock.(0) <- float_of_int i *. dt;
    Working_set.reference ws ~clock i
  done;
  let t0 = float_of_int footprint *. dt in
  let m =
    Harness.measure (fun () ->
        for q = 0 to queries - 1 do
          let now = t0 +. (float_of_int q *. dt) in
          clock.(0) <- now;
          Working_set.reference ws ~clock (q mod footprint);
          ignore (Working_set.size_at ws ~time:now);
          ignore (Working_set.pages_within ws ~time:now ~window:(tau /. 2.))
        done)
  in
  let ns = Harness.ns_per m queries in
  Printf.printf "hotpath: wset   foot %6d  %8d qrys %7.1f ns/query\n%!"
    footprint queries ns;
  Printf.sprintf
    {|{"footprint_pages": %d, "queries": %d, "wall_s": %.4f, "ns_per_query": %.1f}|}
    footprint queries m.wall_s ns

(* --- ARQ timer churn --------------------------------------------------- *)

(* The reliable transport's pattern: a window of per-fragment backoff
   timers goes up, a cumulative ack cancels almost all of them, the
   stragglers fire.  Dead entries must be compacted away, not popped
   one corpse at a time. *)
let timer_churn ~window ~rounds =
  let q = Accent_sim.Event_queue.create () in
  let handles = Array.make window None in
  let max_physical = ref 0 in
  let ops = ref 0 in
  let m =
    Harness.measure (fun () ->
        for round = 0 to rounds - 1 do
          let base = float_of_int (round * window) in
          for i = 0 to window - 1 do
            handles.(i) <-
              Some
                (Accent_sim.Event_queue.push q
                   ~time:(base +. float_of_int ((i * 13) mod 997))
                   i);
            incr ops
          done;
          (* the ack: every 20th fragment was genuinely lost *)
          for i = 0 to window - 1 do
            if i mod 20 <> 0 then begin
              (match handles.(i) with
              | Some h -> Accent_sim.Event_queue.cancel q h
              | None -> ());
              incr ops
            end
          done;
          max_physical :=
            max !max_physical (Accent_sim.Event_queue.physical_size q);
          while Accent_sim.Event_queue.pop q <> None do
            incr ops
          done
        done)
  in
  let ns = Harness.ns_per m !ops in
  let compactions = Accent_sim.Event_queue.compactions q in
  Printf.printf
    "hotpath: timer  win  %6d  %8d ops  %7.1f ns/op  %d compactions  max \
     heap %d\n\
     %!"
    window !ops ns compactions !max_physical;
  Printf.sprintf
    {|{"window": %d, "rounds": %d, "ops": %d, "wall_s": %.4f, "ns_per_op": %.1f, "compactions": %d, "max_physical": %d}|}
    window rounds !ops m.wall_s ns compactions !max_physical

(* --- engine loop --------------------------------------------------------- *)

(* The simulator's own loop at a fixed queue depth: [pending] events are
   posted, then every event that fires posts one more at now plus an
   exponential delay (mean 1 ms) until [events] have fired; the last
   [pending] drain.  The delays are drawn before the clock starts, so
   the row times and counts the engine alone: pop, clock advance, post.
   With [slice_ms] the engine runs in [run ~limit] slices of that much
   simulated time, as a caller stepping a world does, so every event
   also pays the limit check (a slice's own limit and result are a few
   words, spread over its thousands of events). *)
let engine_loop ?slice_ms ~pending ~events () =
  let engine = Accent_sim.Engine.create () in
  let rng = Accent_util.Rng.create 42L in
  (* boxed, as a caller's computed delay is: read out of a flat float
     array, each delay would be boxed again at the call *)
  let delays =
    Array.init 4_096 (fun _ -> ref (Accent_util.Rng.exponential rng 1.))
  in
  let posted = ref 0 in
  let rec fire () =
    if !posted < events then begin
      Accent_sim.Engine.post engine ~delay:!(delays.(!posted land 4_095)) fire;
      incr posted
    end
  in
  for _ = 1 to pending do
    fire ()
  done;
  let run () =
    match slice_ms with
    | None -> ignore (Accent_sim.Engine.run engine)
    | Some slice ->
        while Accent_sim.Engine.pending engine > 0 do
          let limit = Accent_sim.Engine.now engine +. slice in
          ignore (Accent_sim.Engine.run ~limit engine)
        done
  in
  let m = Harness.measure run in
  let fired = Accent_sim.Engine.events_executed engine in
  assert (fired = events);
  let ns = Harness.ns_per m fired and words = Harness.words_per m fired in
  let slice_field, slice_text =
    match slice_ms with
    | None -> ("", "")
    | Some s ->
        ( Printf.sprintf {|"limit_slice_ms": %.0f, |} s,
          Printf.sprintf "  (run ~limit, %.0f ms slices)" s )
  in
  Printf.printf
    "hotpath: engine pending %6d  %8d events %7.1f ns/event  %.2f \
     words/event%s\n\
     %!"
    pending fired ns words slice_text;
  Printf.sprintf
    {|{"pending": %d, %s"events": %d, "wall_s": %.4f, "ns_per_event": %.1f, "minor_words_per_event": %.2f}|}
    pending slice_field fired m.wall_s ns words

(* --- queue station ------------------------------------------------------- *)

(* One Queue_server fed [pairs] job pairs, one pair at a time: a blocker
   with service time w_k, then a probe (1 us) that waits w_k behind it;
   the probe's completion submits the next pair.  w_k = 1e-3 *
   k^(7 / log10 pairs) ms, so the longest wait grows with the run, as a
   long run's tail does: 1e-3 ms at the first pair, about 10 ms after
   10^3 jobs, 1e4 ms at the last.  The station's wait accounting
   ([wait_stats]) is weighed after the first 10^3 jobs and at the end;
   the two counts match exactly when it holds no per-job or per-decade
   store (CI fails otherwise). *)
let queue_station ~pairs =
  let module Q = Accent_sim.Queue_server in
  let engine = Accent_sim.Engine.create () in
  let station = Q.create engine ~name:"station" in
  let exponent = 7. /. log10 (float_of_int pairs) in
  (* boxed once here, as a caller's computed service time is *)
  let waits =
    Array.init pairs (fun k -> ref (1e-3 *. (float_of_int (k + 1) ** exponent)))
  in
  let next = ref 0 and stop = ref 0 in
  let rec submit_pair () =
    if !next < !stop then begin
      Q.submit station ~service_time:!(waits.(!next)) ignore;
      incr next;
      Q.submit station ~service_time:1e-3 submit_pair
    end
  in
  let serve upto =
    stop := upto;
    submit_pair ();
    ignore (Accent_sim.Engine.run engine)
  in
  let retained () = Obj.reachable_words (Obj.repr (Q.wait_stats station)) in
  serve 500;
  let early = retained () in
  let m = Harness.measure (fun () -> serve pairs) in
  let late = retained () in
  let jobs = 2 * (pairs - 500) in
  assert (Q.jobs_completed station = 2 * pairs);
  let max_wait = Accent_util.Stats.max_value (Q.wait_stats station) in
  let ns = Harness.ns_per m jobs and words = Harness.words_per m jobs in
  Printf.printf
    "hotpath: queue  %8d jobs %7.1f ns/job  %.2f words/job  retained %d \
     words after 1e3 jobs, %d after %d (max wait %.0f ms)\n\
     %!"
    (2 * pairs) ns words early late (2 * pairs) max_wait;
  Printf.sprintf
    {|{"jobs": %d, "max_wait_ms": %.1f, "wall_s": %.4f, "ns_per_job": %.1f, "minor_words_per_job": %.2f, "retained_words_after_1e3_jobs": %d, "retained_words_after_1e5_jobs": %d}|}
    (2 * pairs) max_wait m.wall_s ns words early late

(* --- page checks -------------------------------------------------------- *)

(* A tag no workload uses, so the first pass misses the memo on every
   page; the values are built before the clock starts. *)
let page_checks ~pages =
  let values =
    Array.init pages (fun i -> Page.pattern_value ~tag:0x2F00D i)
  in
  let per_page f =
    let sink = ref 0 in
    let m =
      Harness.measure (fun () ->
          Array.iter (fun v -> sink := !sink lxor f v) values)
    in
    ignore (Sys.opaque_identity !sink);
    Harness.ns_per m pages
  in
  let cold = per_page Page.digest in
  let hit = per_page Page.digest in
  let recheck = per_page Page.checksum_value in
  Printf.printf
    "hotpath: page   %8d pages  cold %6.1f  hit %6.1f  recheck %6.1f ns\n%!"
    pages cold hit recheck;
  Printf.sprintf
    {|{"pages": %d, "ns_per_cold_digest": %.1f, "ns_per_memo_hit": %.1f, "ns_per_checksum_value": %.1f}|}
    pages cold hit recheck

(* The same checks a run at a time over one Gen run of [pages] pages
   under another unused tag: Page_run.digests from a cold memo, then
   warm, then Page_run.checksums.  The warm and checksum rows must read
   0.00 minor words per page (CI gates them): a Gen part is never turned
   into values, and the one int array per call is a major allocation. *)
let page_run_checks ~pages =
  let run = Page_run.pattern ~tag:0x2F00E ~first:0 ~len:pages in
  let row name f =
    let m = Harness.measure (fun () -> f run) in
    ignore (Sys.opaque_identity m.value);
    let ns = Harness.ns_per m pages and words = Harness.words_per m pages in
    Printf.printf
      "hotpath: run    %8d pages  %-13s %6.1f ns  %.2f words/page\n%!" pages
      name ns words;
    Printf.sprintf
      {|{"run_pages": %d, "run": "%s", "ns_per_page": %.1f, "minor_words_per_page": %.2f}|}
      pages name ns words
  in
  let cold = row "digests_cold" Page_run.digests in
  let warm = row "digests_warm" Page_run.digests in
  [ cold; warm; row "checksums" Page_run.checksums ]

(* --- ARQ acks ---------------------------------------------------------- *)

(* [messages] messages of [fragments] fragments each, one after another
   from host 0 to host 1, on a clean link with free CPUs: every fragment
   arrives in order and is acked, so the cost per fragment is the ack
   handling on both ends plus a constant for the events around it.
   (Sent all at once, the messages' windows would queue on the link past
   the retransmit timeout.) *)
let arq_acks ~fragments ~messages =
  let open Accent_net in
  let engine = Accent_sim.Engine.create () in
  let ids = Accent_sim.Ids.create () in
  let registry = Net_registry.create () in
  let link =
    Link.create engine ~params:Link.default_params
      ~monitor:(Transfer_monitor.create ())
  in
  let delivered = ref 0 in
  let endpoint host_id =
    Reliable.create engine ~host_id ~link ~registry
      ~cpu:(fun ~service_ms:_ k -> k ())
      ~fragment_cost_ms:(fun ~bytes:_ -> 0.)
      ~on_deliver:(fun ~msg:_ ~wire_bytes:_ ~completes:_ -> incr delivered)
      ~on_give_up:(fun ~msg:_ ~dst:_ -> ())
  in
  let sender = endpoint 0 and _receiver = endpoint 1 in
  let msg =
    Accent_ipc.Message.make ~ids
      ~dest:(Accent_ipc.Port.fresh ids)
      (Accent_ipc.Message.Ping 0)
  in
  let m =
    Harness.measure (fun () ->
        for _ = 1 to messages do
          Reliable.send sender ~dst:1 ~msg
            ~wire_bytes:(fragments * Link.fragment_bytes)
            ~first_fragment_extra_ms:0.;
          ignore (Accent_sim.Engine.run engine)
        done)
  in
  assert (
    !delivered = fragments * messages
    && Reliable.retransmissions sender = 0);
  let ns = Harness.ns_per m !delivered in
  Printf.printf "hotpath: arq    frags %6d  %8d msgs %7.1f ns/fragment\n%!"
    fragments messages ns;
  Printf.sprintf
    {|{"fragments": %d, "messages": %d, "wall_s": %.4f, "ns_per_fragment": %.1f}|}
    fragments messages m.wall_s ns

(* --- reference path ------------------------------------------------------ *)

(* [spaces] live spaces of 16 resident, already-touched pages each on one
   frame pool, each with its working set, referenced round-robin — space
   [i mod spaces], page [i / spaces mod 16] — so consecutive references
   land in different page tables, as a churn host's processes do. *)
let reference_path ~spaces ~refs =
  let per_space = 16 in
  let mem = Phys_mem.create ~frames:(spaces * per_space) in
  let disk = Paging_disk.create () in
  let run = Page_run.init per_space (fun _ -> Page.zero_value) in
  let procs =
    Array.init spaces (fun id ->
        let space = Address_space.create ~id ~mem ~disk in
        Address_space.install_run space ~addr:0 run ~resident:true;
        (space, Working_set.create ~window:1_000.))
  in
  (* the pager's path reads the time from the engine's clock cell *)
  let clock = [| 0. |] in
  let reference i =
    let space, ws = procs.(i mod spaces) in
    let page = i / spaces mod per_space in
    let resident = Address_space.reference space page in
    clock.(0) <- float_of_int i;
    Working_set.reference ws ~clock page;
    resident
  in
  for i = 0 to (spaces * per_space) - 1 do
    ignore (reference i)
  done;
  let base = spaces * per_space in
  let missed = ref 0 in
  let m =
    Harness.measure (fun () ->
        for i = base to base + refs - 1 do
          if not (reference i) then incr missed
        done)
  in
  assert (!missed = 0 && Phys_mem.evictions mem = 0);
  let ns = Harness.ns_per m refs and words = Harness.words_per m refs in
  Printf.printf
    "hotpath: ref    spaces %6d  %8d refs %7.1f ns/ref  %.2f words/ref\n%!"
    spaces refs ns words;
  Printf.sprintf
    {|{"spaces": %d, "references": %d, "wall_s": %.4f, "ns_per_reference": %.1f, "minor_words_per_reference": %.2f}|}
    spaces refs m.wall_s ns words

(* --- interval map --------------------------------------------------------- *)

(* ns and minor words per call of [op i] over [ops] calls. *)
let per_op ~ops op =
  let m =
    Harness.measure (fun () ->
        for i = 0 to ops - 1 do
          op i
        done)
  in
  (Harness.ns_per m ops, Harness.words_per m ops)

(* [intervals] regions of 48 pages, 64 apart, all carrying 0: a sparse
   space's layout.  The set op makes one page of region [r] carry 1 (the
   region splits in three) and the next op puts it back (the three
   coalesce), so the map keeps its size; regions are visited with a
   stride, so the splice point is spread over the whole map.  A fold
   spans 32 regions and their gaps. *)
let interval_map_ops ~intervals ~set_ops ~find_ops ~folds =
  let m = Interval_map.create () in
  for r = 0 to intervals - 1 do
    Interval_map.set m ~lo:(r * 64) ~hi:((r * 64) + 48) 0
  done;
  let region i = i * 7919 mod intervals in
  let ns_per_set, words_per_set =
    per_op ~ops:set_ops (fun i ->
        let page = (region (i / 2) * 64) + 16 in
        Interval_map.set m ~lo:page ~hi:(page + 1) (i land 1 lxor 1))
  in
  assert (Interval_map.cardinal m = intervals);
  let found = ref 0 in
  let ns_per_find, words_per_find =
    per_op ~ops:find_ops (fun i ->
        match Interval_map.find m ((region i * 64) + 24) with
        | _ -> incr found
        | exception Not_found -> ())
  in
  assert (!found = find_ops);
  let span = min intervals 32 in
  let pieces = ref 0 in
  let ns_per_fold, words_per_fold =
    per_op ~ops:folds (fun i ->
        let lo = region i mod (intervals - span + 1) * 64 in
        pieces :=
          Interval_map.fold_pieces m ~lo ~hi:(lo + (span * 64)) ~init:0
            ~f:(fun n _ _ _ -> n + 1))
  in
  Printf.printf
    "hotpath: imap   n %6d  set %8.1f ns %5.2f w  find %6.1f ns %5.2f w  \
     fold/%d %8.1f ns %6.2f w\n\
     %!"
    intervals ns_per_set words_per_set ns_per_find words_per_find !pieces
    ns_per_fold words_per_fold;
  Printf.sprintf
    {|{"intervals": %d, "set_ops": %d, "ns_per_set": %.1f, "minor_words_per_set": %.2f, "find_ops": %d, "ns_per_find": %.1f, "minor_words_per_find": %.2f, "folds": %d, "pieces_per_fold": %d, "ns_per_fold": %.1f, "minor_words_per_fold": %.2f}|}
    intervals set_ops ns_per_set words_per_set find_ops ns_per_find
    words_per_find folds !pieces ns_per_fold words_per_fold

(* --- segment read ------------------------------------------------------- *)

(* One segment of [extents] eight-page Gen extents, banked in ascending
   order as the migration path banks them.  Read [i] starts at page 4 of
   extent [j] (a stride over the extents) and asks for 16 pages, so it
   crosses up to three extents and stops early only at the segment's
   end: 4 pages in a one-extent segment.  The pages a read returns are
   counted from the layout, so the loop measures the read alone. *)
let segment_read ~extents ~reads =
  let store = Accent_net.Content_store.create () in
  for e = 0 to extents - 1 do
    Accent_net.Content_store.put_extent store ~segment_id:1
      ~offset:(e * 8 * Page.size)
      (Page_run.pattern ~tag:0x2F00F ~first:(e * 8) ~len:8)
  done;
  let first_page i = (i * 7919 mod extents * 8) + 4 in
  let pages = ref 0 in
  for i = 0 to reads - 1 do
    pages := !pages + min 16 ((extents * 8) - first_page i)
  done;
  let m =
    Harness.measure (fun () ->
        for i = 0 to reads - 1 do
          ignore
            (Sys.opaque_identity
               (Accent_net.Content_store.read_run store ~segment_id:1
                  ~offset:(first_page i * Page.size) ~pages:16))
        done)
  in
  let ns = Harness.ns_per m !pages and words = Harness.words_per m !pages in
  Printf.printf
    "hotpath: segrd  extents %5d  %8d reads %7.1f ns/page  %.2f words/page\n%!"
    extents reads ns words;
  Printf.sprintf
    {|{"extents": %d, "extent_pages": 8, "reads": %d, "pages_read": %d, "ns_per_page": %.1f, "minor_words_per_page": %.2f}|}
    extents reads !pages ns words

(* --- footprint ------------------------------------------------------------ *)

(* The heap words [jobs] churn jobs add to a one-host world, per job: each
   is built from the churn scenario's own spec and spawned, as an arrival
   is, but never stepped, so the row weighs what a queued job holds.  The
   host's frame table and LRU ring grow with the resident pages, so a
   job's share of them is counted too.  [Obj.reachable_words] is exact
   and deterministic: the row is a count, not a timing. *)
let job_footprint ~jobs =
  let module C = Accent_experiments.Cluster_scenario in
  let world = Accent_core.World.create ~n_hosts:1 () in
  let host = Accent_core.World.host world 0 in
  let weigh () = Obj.reachable_words (Obj.repr world) in
  let before = weigh () in
  for i = 0 to jobs - 1 do
    let spec = C.churn_job_spec C.default_churn ~think_ms:4_000. i in
    ignore (Sys.opaque_identity (Accent_workloads.Spec.build host spec))
  done;
  let words = (weigh () - before) / jobs in
  Printf.printf "hotpath: foot   churn job  %8d jobs  %6d words/job\n%!" jobs
    words;
  Printf.sprintf {|{"structure": "churn_job", "jobs": %d, "words_per_job": %d}|}
    jobs words

(* The words a map of [intervals] disjoint one-page intervals holds, each
   carrying a distinct immediate, built by appends as a space's layout
   is.  A hundred such maps are weighed together, so the equality
   closure they share counts once and rounds away. *)
let map_footprint ~intervals =
  let copies = 100 in
  let maps =
    Array.init copies (fun _ ->
        let m = Interval_map.create () in
        for i = 0 to intervals - 1 do
          Interval_map.set m ~lo:(2 * i) ~hi:((2 * i) + 1) i
        done;
        m)
  in
  let words = (Obj.reachable_words (Obj.repr maps) - (copies + 1)) / copies in
  Printf.printf "hotpath: foot   map  %6d intervals  %6d words\n%!" intervals
    words;
  Printf.sprintf {|{"structure": "interval_map", "intervals": %d, "words": %d}|}
    intervals words

(* --- job build ------------------------------------------------------------ *)

(* The lossy-wire benchmark's image at [real_pages] real pages: a quarter
   of them touched in sequential runs across two streams. *)
let lossy_spec ~real_pages =
  {
    Accent_workloads.Spec.name = "lossy-h0";
    description = "lossy-wire benchmark image";
    real_bytes = real_pages * Page.size;
    total_bytes = 4 * real_pages * Page.size;
    rs_bytes = real_pages / 32 * Page.size;
    touched_real_pages = real_pages / 4;
    rs_touched_overlap = real_pages / 64;
    real_runs = 16;
    vm_segments = 4;
    pattern =
      Accent_workloads.Access_pattern.Sequential
        { streams = 2; revisit = 0.2; run = 16 };
    refs = real_pages / 2;
    total_think_ms = 2_000.;
    zero_touch_pages = 2;
    base_addr = 0x40000;
  }

(* [builds] calls of [Spec.build], build [i] of [spec i], each on a
   fresh one-host world made outside the measured window, so a row
   weighs the build alone: every word it allocates, kept or not. *)
let job_build ~job ~builds spec =
  let wall = ref 0. and words = ref 0. in
  for i = 0 to builds - 1 do
    let world = Accent_core.World.create ~n_hosts:1 () in
    let host = Accent_core.World.host world 0 in
    let spec = spec i in
    let m =
      Harness.measure (fun () ->
          ignore (Sys.opaque_identity (Accent_workloads.Spec.build host spec)))
    in
    wall := !wall +. m.wall_s;
    words := !words +. m.minor_words
  done;
  let pages = Accent_workloads.Spec.real_pages (spec 0) in
  let n = float_of_int builds in
  let ns = !wall /. n *. 1e9 and per = !words /. n in
  Printf.printf "hotpath: build  %-9s %6d pages  %9.0f ns  %9.1f words\n%!" job
    pages ns per;
  Printf.sprintf
    {|{"job": "%s", "real_pages": %d, "builds": %d, "ns_per_build": %.0f, "minor_words_per_build": %.1f}|}
    job pages builds ns per

(* [ops] set/clear pairs at random positions in a map of [intervals]
   one-page intervals, two pages apart: the set fills the gap after a
   random interval with a new value (one insert) and the clear takes it
   out again (one delete), so the map keeps its size and every splice
   lands at a random point, moving half the tail on average. *)
let interval_map_random ~intervals ~ops =
  let m = Interval_map.create () in
  for i = 0 to intervals - 1 do
    Interval_map.set m ~lo:(2 * i) ~hi:((2 * i) + 1) 0
  done;
  let rng = Accent_util.Rng.create 7L in
  let at =
    Array.init ops (fun _ -> (2 * Accent_util.Rng.int rng intervals) + 1)
  in
  let ns, _ =
    per_op ~ops (fun i ->
        let lo = at.(i) in
        Interval_map.set m ~lo ~hi:(lo + 1) 1;
        Interval_map.clear m ~lo ~hi:(lo + 1))
  in
  assert (Interval_map.cardinal m = intervals);
  Printf.printf "hotpath: imrnd  n %6d  %6d random set+clear %8.1f ns/op\n%!"
    intervals ops (ns /. 2.);
  Printf.sprintf
    {|{"structure": "interval_map_random", "intervals": %d, "set_clear_pairs": %d, "ns_per_op": %.1f}|}
    intervals ops (ns /. 2.)

(* --- int tables ------------------------------------------------------- *)

(* The two int-keyed tables side by side: [Int_tbl] (flat, open
   addressing) and the generic [(int, int) Hashtbl.t] (chained buckets,
   [caml_hash] and polymorphic compare per probe), behind one signature
   so both rows run the same loops. *)
module type INT_TABLE = sig
  type t

  val name : string
  val create : int -> t
  val replace : t -> int -> int -> unit
  val find : t -> int -> int
  val find_opt : t -> int -> int option
  val remove : t -> int -> unit
end

let flat_table : (module INT_TABLE) =
  (module struct
    type t = int Accent_util.Int_tbl.t

    let name = "Int_tbl"
    let create = Accent_util.Int_tbl.create
    let replace = Accent_util.Int_tbl.replace
    let find = Accent_util.Int_tbl.find
    let find_opt = Accent_util.Int_tbl.find_opt
    let remove = Accent_util.Int_tbl.remove
  end)

let generic_table : (module INT_TABLE) =
  (module struct
    type t = (int, int) Hashtbl.t

    let name = "Hashtbl"
    let create n = Hashtbl.create n
    let replace = Hashtbl.replace
    let find = Hashtbl.find
    let find_opt = Hashtbl.find_opt
    let remove = Hashtbl.remove
  end)

(* [keys] page-aligned offsets, as a segment's pages are keyed, visited
   in a scattered order (7919 is prime, so [j * 7919 mod keys] is a
   permutation).  Hits, misses (offsets between two keys) and replaces
   of a present key run [ops] times on one full table; inserts grow
   fresh tables from 16 slots to [keys], and removes empty full tables,
   [max 1 (ops / keys)] times each, timing only the inserts or removes. *)
let int_table (module T : INT_TABLE) ~keys ~ops =
  let key j = j * 7919 mod keys * Page.size in
  let fill t =
    for j = 0 to keys - 1 do
      T.replace t (key j) j
    done
  in
  let t = T.create 16 in
  fill t;
  let sink = ref 0 in
  let hit = per_op ~ops (fun j -> sink := !sink lxor T.find t (key j)) in
  let miss =
    per_op ~ops (fun j ->
        match T.find_opt t (key j + 1) with
        | Some v -> sink := !sink lxor v
        | None -> ())
  in
  let replace = per_op ~ops (fun j -> T.replace t (key j) j) in
  ignore (Sys.opaque_identity !sink);
  let rounds = max 1 (ops / keys) in
  (* ns and minor words per key over [rounds] timed passes of [pass] *)
  let per_key setup pass =
    let wall = ref 0. and words = ref 0. in
    for _ = 1 to rounds do
      let t = setup () in
      let m = Harness.measure (fun () -> pass t) in
      wall := !wall +. m.wall_s;
      words := !words +. m.minor_words
    done;
    let n = float_of_int (rounds * keys) in
    (!wall /. n *. 1e9, !words /. n)
  in
  let insert = per_key (fun () -> T.create 16) fill in
  let remove =
    per_key
      (fun () ->
        let t = T.create 16 in
        fill t;
        t)
      (fun t ->
        for j = 0 to keys - 1 do
          T.remove t (key j)
        done)
  in
  let cells =
    [
      ("find_hit", hit);
      ("find_miss", miss);
      ("replace", replace);
      ("insert", insert);
      ("remove", remove);
    ]
  in
  Printf.printf "hotpath: itbl   %-7s keys %7d %s\n%!" T.name keys
    (String.concat " "
       (List.map
          (fun (op, (ns, w)) -> Printf.sprintf "%s %6.1f ns %4.2f w" op ns w)
          cells));
  Printf.sprintf {|{"table": "%s", "keys": %d, "ops": %d, "rounds": %d, %s}|}
    T.name keys ops rounds
    (String.concat ", "
       (List.map
          (fun (op, (ns, w)) ->
            Printf.sprintf {|"ns_per_%s": %.1f, "minor_words_per_%s": %.2f|}
              op ns op w)
          cells))

(* --- driver ------------------------------------------------------------ *)

let () =
  let args = Harness.parse ~name:"hotpath" ~out:"BENCH_hotpath.json" [] in
  let smoke = args.smoke in
  let pools, evict_ops =
    if smoke then ([ 256; 1_024 ], 20_000)
    else ([ 1_024; 4_096; 16_384; 65_536 ], 200_000)
  in
  let footprints, ws_queries =
    if smoke then ([ 1_024; 4_096 ], 2_000)
    else ([ 4_096; 32_768; 262_144 ], 20_000)
  in
  let windows, rounds =
    if smoke then ([ 1_000; 10_000 ], 5) else ([ 1_000; 10_000; 100_000 ], 20)
  in
  let evict =
    List.map (fun pool -> eviction_storm ~pool ~ops:evict_ops) pools
  in
  let ws =
    List.map
      (fun footprint -> working_set_churn ~footprint ~queries:ws_queries)
      footprints
  in
  let timers = List.map (fun window -> timer_churn ~window ~rounds) windows in
  let engine =
    let events = if smoke then 100_000 else 2_000_000 in
    let unlimited =
      List.map
        (fun pending -> engine_loop ~pending ~events ())
        [ 16; 1_024; 65_536 ]
    in
    unlimited @ [ engine_loop ~slice_ms:1_000. ~pending:1_024 ~events () ]
  in
  let station = [ queue_station ~pairs:50_000 ] in
  let page =
    let per_page = page_checks ~pages:(if smoke then 20_000 else 200_000) in
    per_page :: page_run_checks ~pages:32_768
  in
  (* the same fragment total at every message length *)
  let total = if smoke then 4_096 else 65_536 in
  let arq =
    List.map
      (fun fragments -> arq_acks ~fragments ~messages:(total / fragments))
      (if smoke then [ 64; 1_024 ] else [ 64; 1_024; 16_384 ])
  in
  let refs =
    List.map
      (fun spaces ->
        reference_path ~spaces ~refs:(if smoke then 100_000 else 2_000_000))
      (if smoke then [ 256; 1_024 ] else [ 1_024; 16_384; 131_072 ])
  in
  let imap =
    List.map
      (fun intervals ->
        if smoke then
          interval_map_ops ~intervals ~set_ops:2_000 ~find_ops:20_000
            ~folds:2_000
        else
          interval_map_ops ~intervals ~set_ops:20_000 ~find_ops:2_000_000
            ~folds:200_000)
      [ 16; 1_024; 65_536 ]
  in
  let segment =
    List.map
      (fun extents ->
        segment_read ~extents ~reads:(if smoke then 2_000 else 200_000))
      [ 1; 64; 512 ]
  in
  let footprint =
    (job_footprint ~jobs:100
    :: List.map (fun intervals -> map_footprint ~intervals) [ 1; 2; 5; 9 ])
    @ List.map
        (fun intervals ->
          interval_map_random ~intervals ~ops:(if smoke then 200 else 20_000))
        [ 1_024; 16_384; 65_536 ]
  in
  let builds =
    let module C = Accent_experiments.Cluster_scenario in
    let churn =
      job_build ~job:"churn" ~builds:100 (fun i ->
          C.churn_job_spec C.default_churn ~think_ms:3_000. i)
    in
    let reps =
      List.map
        (fun spec ->
          job_build ~job:spec.Accent_workloads.Spec.name ~builds:5 (fun _ ->
              spec))
        Accent_workloads.Representative.all
    in
    let lossy =
      List.map
        (fun real_pages ->
          job_build ~job:"lossy-wire" ~builds:4 (fun _ ->
              lossy_spec ~real_pages))
        (if smoke then [ 2_048 ] else [ 2_048; 32_768 ])
    in
    (churn :: reps) @ lossy
  in
  let tables =
    List.concat_map
      (fun keys ->
        List.map
          (fun table ->
            int_table table ~keys ~ops:(if smoke then 100_000 else 2_000_000))
          [ flat_table; generic_table ])
      (if smoke then [ 1_024; 32_768 ] else [ 1_024; 32_768; 1_048_576 ])
  in
  Harness.write_json ~name:"hotpath" ~smoke ~out:args.out
    [
      ("page_bytes", string_of_int Page.size);
      ("eviction_storm", Harness.rows evict);
      ("working_set_churn", Harness.rows ws);
      ("timer_churn", Harness.rows timers);
      ("engine_loop", Harness.rows engine);
      ("queue_station", Harness.rows station);
      ("page_checks", Harness.rows page);
      ("arq_ack", Harness.rows arq);
      ("reference_path", Harness.rows refs);
      ("interval_map", Harness.rows imap);
      ("segment_read", Harness.rows segment);
      ("footprint", Harness.rows footprint);
      ("job_build", Harness.rows builds);
      ("int_tbl", Harness.rows tables);
    ]
