(* The hot-path micro-benchmark: per-operation cost of the three
   structures every simulated event leans on, measured in isolation so
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
     page checks       Page.digest on distinct Pattern pages (a memo
                       miss, then a hit) and Page.checksum_value, the
                       wire re-check — per page, no buffer built.
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

   Results land in BENCH_hotpath.json next to BENCH_scale.json.

   Run with:  dune exec bench/hotpath.exe            (full sweep)
              dune exec bench/hotpath.exe -- --smoke (tiny sweep, for CI) *)

open Accent_mem

let time_it f =
  let wall0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. wall0

(* --- eviction storm ---------------------------------------------------- *)

type evict_row = { pool : int; ops : int; ev_wall_s : float; ns_per_op : float }

(* Fill the pool, then allocate [ops] more pages: each allocation must
   evict the LRU frame.  Once the pool is full the live frame-id set
   is stable (the victim's id is immediately reused), so interleaved
   touches — which exercise the lazy-invalidation path — stay valid. *)
let eviction_storm ~pool ~ops =
  let mem = Phys_mem.create ~frames:pool in
  Phys_mem.set_evict_handler mem (fun _ _ ~dirty:_ -> ());
  for i = 0 to pool - 1 do
    ignore
      (Phys_mem.allocate mem ~owner:{ Phys_mem.space_id = 0; page = i }
         Page.zero_value)
  done;
  let wall =
    time_it (fun () ->
        for i = 0 to ops - 1 do
          Phys_mem.touch mem (i * 7919 mod pool);
          ignore
            (Phys_mem.allocate mem
               ~owner:{ Phys_mem.space_id = 0; page = pool + i }
               Page.zero_value)
        done)
  in
  assert (Phys_mem.evictions mem = ops);
  { pool; ops; ev_wall_s = wall; ns_per_op = wall /. float_of_int ops *. 1e9 }

(* --- working-set churn ------------------------------------------------- *)

type ws_row = {
  footprint : int;
  queries : int;
  ws_wall_s : float;
  ns_per_query : float;
}

(* Touch [footprint] distinct pages over a long virtual lifetime so
   only ~[tau] worth of them stay in-window, then interleave
   references and the three query forms the engines use at migration
   start.  The old fold paid O(footprint) per query. *)
let working_set_churn ~footprint ~queries =
  let tau = 1_000. in
  let dt = tau /. 512. in
  let ws = Working_set.create ~window:tau in
  for i = 0 to footprint - 1 do
    Working_set.reference ws ~time:(float_of_int i *. dt) i
  done;
  let t0 = float_of_int footprint *. dt in
  let wall =
    time_it (fun () ->
        for q = 0 to queries - 1 do
          let now = t0 +. (float_of_int q *. dt) in
          Working_set.reference ws ~time:now (q mod footprint);
          ignore (Working_set.size_at ws ~time:now);
          ignore (Working_set.pages_within ws ~time:now ~window:(tau /. 2.))
        done)
  in
  {
    footprint;
    queries;
    ws_wall_s = wall;
    ns_per_query = wall /. float_of_int queries *. 1e9;
  }

(* --- ARQ timer churn --------------------------------------------------- *)

type timer_row = {
  window : int;
  rounds : int;
  timer_ops : int;
  tm_wall_s : float;
  tm_ns_per_op : float;
  compactions : int;
  max_physical : int;
}

(* The reliable transport's pattern: a window of per-fragment backoff
   timers goes up, a cumulative ack cancels almost all of them, the
   stragglers fire.  Dead entries must be compacted away, not popped
   one corpse at a time. *)
let timer_churn ~window ~rounds =
  let q = Accent_sim.Event_queue.create () in
  let handles = Array.make window None in
  let max_physical = ref 0 in
  let ops = ref 0 in
  let wall =
    time_it (fun () ->
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
  {
    window;
    rounds;
    timer_ops = !ops;
    tm_wall_s = wall;
    tm_ns_per_op = wall /. float_of_int !ops *. 1e9;
    compactions = Accent_sim.Event_queue.compactions q;
    max_physical = !max_physical;
  }

(* --- page checks -------------------------------------------------------- *)

type page_row = {
  pages : int;
  ns_per_cold : float;
  ns_per_hit : float;
  ns_per_recheck : float;
}

(* A tag no workload uses, so the first pass misses the memo on every
   page; the values are built before the clock starts. *)
let page_checks ~pages =
  let values =
    Array.init pages (fun i -> Page.pattern_value ~tag:0x2F00D i)
  in
  let per_page f =
    let sink = ref 0 in
    let wall =
      time_it (fun () -> Array.iter (fun v -> sink := !sink lxor f v) values)
    in
    ignore (Sys.opaque_identity !sink);
    wall /. float_of_int pages *. 1e9
  in
  let ns_per_cold = per_page Page.digest in
  let ns_per_hit = per_page Page.digest in
  let ns_per_recheck = per_page Page.checksum_value in
  { pages; ns_per_cold; ns_per_hit; ns_per_recheck }

(* --- ARQ acks ---------------------------------------------------------- *)

type arq_row = {
  fragments : int;
  messages : int;
  arq_wall_s : float;
  ns_per_fragment : float;
}

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
  let wall =
    time_it (fun () ->
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
  {
    fragments;
    messages;
    arq_wall_s = wall;
    ns_per_fragment = wall /. float_of_int !delivered *. 1e9;
  }

(* --- reference path ------------------------------------------------------ *)

type ref_row = {
  spaces : int;
  refs : int;
  ref_wall_s : float;
  ns_per_ref : float;
  words_per_ref : float;
}

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
        let space = Address_space.create ~id ~name:"p" ~mem ~disk in
        Address_space.install_run space ~addr:0 run ~resident:true;
        (space, Working_set.create ~window:1_000.))
  in
  let reference i =
    let space, ws = procs.(i mod spaces) in
    let page = i / spaces mod per_space in
    let resident = Address_space.reference space page in
    Working_set.reference ws ~time:(float_of_int i) page;
    resident
  in
  for i = 0 to (spaces * per_space) - 1 do
    ignore (reference i)
  done;
  let base = spaces * per_space in
  let words0 = Gc.minor_words () in
  let missed = ref 0 in
  let wall =
    time_it (fun () ->
        for i = base to base + refs - 1 do
          if not (reference i) then incr missed
        done)
  in
  let words = Gc.minor_words () -. words0 in
  assert (!missed = 0 && Phys_mem.evictions mem = 0);
  {
    spaces;
    refs;
    ref_wall_s = wall;
    ns_per_ref = wall /. float_of_int refs *. 1e9;
    words_per_ref = words /. float_of_int refs;
  }

(* --- interval map --------------------------------------------------------- *)

type imap_row = {
  intervals : int;
  set_ops : int;
  ns_per_set : float;
  words_per_set : float;
  find_ops : int;
  ns_per_find : float;
  words_per_find : float;
  folds : int;
  pieces_per_fold : int;
  ns_per_fold : float;
  words_per_fold : float;
}

(* ns and minor words per call of [op i] over [ops] calls. *)
let per_op ~ops op =
  let words0 = Gc.minor_words () in
  let wall =
    time_it (fun () ->
        for i = 0 to ops - 1 do
          op i
        done)
  in
  ( wall /. float_of_int ops *. 1e9,
    (Gc.minor_words () -. words0) /. float_of_int ops )

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
        | Some _ -> incr found
        | None -> ())
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
  {
    intervals;
    set_ops;
    ns_per_set;
    words_per_set;
    find_ops;
    ns_per_find;
    words_per_find;
    folds;
    pieces_per_fold = !pieces;
    ns_per_fold;
    words_per_fold;
  }

(* --- JSON output ------------------------------------------------------- *)

let evict_json r =
  Printf.sprintf
    {|    {"pool_frames": %d, "evictions": %d, "wall_s": %.4f, "ns_per_eviction": %.1f}|}
    r.pool r.ops r.ev_wall_s r.ns_per_op

let ws_json r =
  Printf.sprintf
    {|    {"footprint_pages": %d, "queries": %d, "wall_s": %.4f, "ns_per_query": %.1f}|}
    r.footprint r.queries r.ws_wall_s r.ns_per_query

let timer_json r =
  Printf.sprintf
    {|    {"window": %d, "rounds": %d, "ops": %d, "wall_s": %.4f, "ns_per_op": %.1f, "compactions": %d, "max_physical": %d}|}
    r.window r.rounds r.timer_ops r.tm_wall_s r.tm_ns_per_op r.compactions
    r.max_physical

let page_json r =
  Printf.sprintf
    {|    {"pages": %d, "ns_per_cold_digest": %.1f, "ns_per_memo_hit": %.1f, "ns_per_checksum_value": %.1f}|}
    r.pages r.ns_per_cold r.ns_per_hit r.ns_per_recheck

let arq_json r =
  Printf.sprintf
    {|    {"fragments": %d, "messages": %d, "wall_s": %.4f, "ns_per_fragment": %.1f}|}
    r.fragments r.messages r.arq_wall_s r.ns_per_fragment

let ref_json r =
  Printf.sprintf
    {|    {"spaces": %d, "references": %d, "wall_s": %.4f, "ns_per_reference": %.1f, "minor_words_per_reference": %.2f}|}
    r.spaces r.refs r.ref_wall_s r.ns_per_ref r.words_per_ref

let imap_json r =
  Printf.sprintf
    {|    {"intervals": %d, "set_ops": %d, "ns_per_set": %.1f, "minor_words_per_set": %.2f, "find_ops": %d, "ns_per_find": %.1f, "minor_words_per_find": %.2f, "folds": %d, "pieces_per_fold": %d, "ns_per_fold": %.1f, "minor_words_per_fold": %.2f}|}
    r.intervals r.set_ops r.ns_per_set r.words_per_set r.find_ops r.ns_per_find
    r.words_per_find r.folds r.pieces_per_fold r.ns_per_fold r.words_per_fold

let write_json ~path ~mode ~evict ~ws ~timers ~page ~arq ~refs ~imap =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc {|  "benchmark": "hotpath",%s|} "\n";
  Printf.fprintf oc {|  "mode": "%s",%s|} mode "\n";
  Printf.fprintf oc {|  "page_bytes": %d,%s|} Page.size "\n";
  Printf.fprintf oc "  \"eviction_storm\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map evict_json evict));
  Printf.fprintf oc "  \"working_set_churn\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map ws_json ws));
  Printf.fprintf oc "  \"timer_churn\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map timer_json timers));
  Printf.fprintf oc "  \"page_checks\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map page_json page));
  Printf.fprintf oc "  \"arq_ack\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map arq_json arq));
  Printf.fprintf oc "  \"reference_path\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map ref_json refs));
  Printf.fprintf oc "  \"interval_map\": [\n%s\n  ]\n"
    (String.concat ",\n" (List.map imap_json imap));
  Printf.fprintf oc "}\n";
  close_out oc

(* --- driver ------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" args in
  let rec out_path = function
    | "--out" :: path :: _ -> path
    | _ :: rest -> out_path rest
    | [] -> "BENCH_hotpath.json"
  in
  let out = out_path args in
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
    List.map
      (fun pool ->
        let r = eviction_storm ~pool ~ops:evict_ops in
        Printf.printf "hotpath: evict  pool %6d  %8d ops  %7.1f ns/op\n%!"
          r.pool r.ops r.ns_per_op;
        r)
      pools
  in
  let ws =
    List.map
      (fun footprint ->
        let r = working_set_churn ~footprint ~queries:ws_queries in
        Printf.printf "hotpath: wset   foot %6d  %8d qrys %7.1f ns/query\n%!"
          r.footprint r.queries r.ns_per_query;
        r)
      footprints
  in
  let timers =
    List.map
      (fun window ->
        let r = timer_churn ~window ~rounds in
        Printf.printf
          "hotpath: timer  win  %6d  %8d ops  %7.1f ns/op  %d compactions  \
           max heap %d\n\
           %!"
          r.window r.timer_ops r.tm_ns_per_op r.compactions r.max_physical;
        r)
      windows
  in
  let page =
    let r = page_checks ~pages:(if smoke then 20_000 else 200_000) in
    Printf.printf
      "hotpath: page   %8d pages  cold %6.1f  hit %6.1f  recheck %6.1f ns\n%!"
      r.pages r.ns_per_cold r.ns_per_hit r.ns_per_recheck;
    [ r ]
  in
  (* the same fragment total at every message length *)
  let total = if smoke then 4_096 else 65_536 in
  let arq =
    List.map
      (fun fragments ->
        let r = arq_acks ~fragments ~messages:(total / fragments) in
        Printf.printf
          "hotpath: arq    frags %6d  %8d msgs %7.1f ns/fragment\n%!"
          r.fragments r.messages r.ns_per_fragment;
        r)
      (if smoke then [ 64; 1_024 ] else [ 64; 1_024; 16_384 ])
  in
  let refs =
    List.map
      (fun spaces ->
        let r =
          reference_path ~spaces ~refs:(if smoke then 100_000 else 2_000_000)
        in
        Printf.printf
          "hotpath: ref    spaces %6d  %8d refs %7.1f ns/ref  %.2f words/ref\n%!"
          r.spaces r.refs r.ns_per_ref r.words_per_ref;
        r)
      (if smoke then [ 256; 1_024 ] else [ 1_024; 16_384; 131_072 ])
  in
  let imap =
    List.map
      (fun intervals ->
        let r =
          if smoke then
            interval_map_ops ~intervals ~set_ops:2_000 ~find_ops:20_000
              ~folds:2_000
          else
            interval_map_ops ~intervals ~set_ops:20_000 ~find_ops:2_000_000
              ~folds:200_000
        in
        Printf.printf
          "hotpath: imap   n %6d  set %8.1f ns %5.2f w  find %6.1f ns %5.2f \
           w  fold/%d %8.1f ns %6.2f w\n\
           %!"
          r.intervals r.ns_per_set r.words_per_set r.ns_per_find
          r.words_per_find r.pieces_per_fold r.ns_per_fold r.words_per_fold;
        r)
      [ 16; 1_024; 65_536 ]
  in
  write_json ~path:out ~mode:(if smoke then "smoke" else "full") ~evict ~ws
    ~timers ~page ~arq ~refs ~imap;
  Printf.printf "hotpath: wrote %s\n%!" out
