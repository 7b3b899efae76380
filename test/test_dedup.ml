(* The content-addressed page store and the digest-first transfer
   protocol built on it.

   The store is checked against a deliberately naive linear-fold LRU
   oracle (qcheck), then pinned down with scripted counter sequences,
   the capacity-0 disable path, and the wire-insert integrity check.
   The end-to-end cases drive whole migrations: a corrupt-prone wire
   must never leave a mis-named value in the store, a fully warm
   destination must cut wire bytes by at least half, and with dedup
   off (the default) the protocol must be completely invisible. *)
open Accent_mem
open Accent_net
open Accent_kernel
open Accent_core

(* A small universe of distinct page values to exercise the store with. *)
let n_keys = 12
let key_values = Array.init n_keys (fun i -> Page.pattern_value ~tag:97 (i + 1))
let key_digests = Array.map Page.digest key_values

let test_distinct_digests () =
  let sorted = List.sort_uniq compare (Array.to_list key_digests) in
  Alcotest.(check int) "test universe digests collide" n_keys (List.length sorted)

(* --- LRU behaviour vs a linear-fold oracle ------------------------------ *)

(* The operations the store's digest layer offers.  [Wire (k, honest)]
   claims key [k]'s digest; a dishonest claim names the next key, so the
   integrity check must reject it. *)
type op = Insert of int | Wire of int * bool | Find of int | Mem of int

(* Most-recent digest first; everything the store does with a
   stamp-validated FIFO, the model does by walking a list. *)
type model = {
  order : int list;
  evs : int;
  hits : int;
  misses : int;
  ins : int;
  intern : int;
  rejects : int;
}

let model_empty =
  {
    order = [];
    evs = 0;
    hits = 0;
    misses = 0;
    ins = 0;
    intern = 0;
    rejects = 0;
  }

let model_touch m d = { m with order = d :: List.filter (fun x -> x <> d) m.order }

let model_remember cap m d =
  if cap = 0 then m (* a disabled index counts nothing *)
  else if List.mem d m.order then
    let m = model_touch m d in
    { m with intern = m.intern + 1 }
  else
    let order = d :: m.order in
    if List.length order > cap then
      {
        m with
        order = List.filteri (fun i _ -> i < cap) order;
        evs = m.evs + 1;
        ins = m.ins + 1;
      }
    else { m with order; ins = m.ins + 1 }

let model_apply cap m = function
  | Insert key | Wire (key, true) -> model_remember cap m key_digests.(key)
  | Wire (_, false) -> { m with rejects = m.rejects + 1 }
  | Mem _ -> m
  | Find key ->
      let d = key_digests.(key) in
      if cap = 0 then m
      else if List.mem d m.order then
        let m = model_touch m d in
        { m with hits = m.hits + 1 }
      else { m with misses = m.misses + 1 }

let pp_op = function
  | Insert k -> Printf.sprintf "i%d" k
  | Wire (k, honest) -> Printf.sprintf "w%d%s" k (if honest then "" else "!")
  | Find k -> Printf.sprintf "f%d" k
  | Mem k -> Printf.sprintf "m%d" k

let pp_ops (cap, ops) =
  Printf.sprintf "cap=%d [%s]" cap (String.concat ";" (List.map pp_op ops))

let arb_ops =
  (* skewed toward a hot set of three keys: long runs of hits with no
     eviction pile up stale FIFO pairs, so the queue compacts, and the
     cold keys' evictions then walk its head round the ring *)
  let key =
    QCheck.Gen.(
      frequency [ (3, int_range 0 2); (1, int_range 0 (n_keys - 1)) ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun k -> Insert k) key);
          ( 2,
            map2
              (fun k honest -> Wire (k, honest))
              key
              (frequencyl [ (4, true); (1, false) ]) );
          (4, map (fun k -> Find k) key);
          (1, map (fun k -> Mem k) key);
        ])
  in
  QCheck.make ~print:pp_ops
    QCheck.Gen.(pair (int_range 0 8) (list_size (int_range 0 400) op))

let prop_lru_matches_oracle =
  QCheck.Test.make ~count:300 ~long_factor:50
    ~name:"store LRU = linear-fold oracle (contents + every counter)"
    arb_ops
    (fun (cap, ops) ->
      let store = Content_store.create ~dedup:true ~capacity_pages:cap () in
      let mem_agrees = ref true in
      let m =
        List.fold_left
          (fun m op ->
            (match op with
            | Insert key -> Content_store.insert store key_values.(key)
            | Wire (key, honest) ->
                let claimed =
                  if honest then key_digests.(key)
                  else key_digests.((key + 1) mod n_keys)
                in
                ignore
                  (Content_store.insert_wire store ~claimed key_values.(key))
            | Find key -> ignore (Content_store.find store key_digests.(key))
            | Mem key ->
                if
                  Content_store.mem store key_digests.(key)
                  <> List.mem key_digests.(key) m.order
                then mem_agrees := false);
            model_apply cap m op)
          model_empty ops
      in
      !mem_agrees
      && Content_store.hits store = m.hits
      && Content_store.misses store = m.misses
      && Content_store.insertions store = m.ins
      && Content_store.evictions store = m.evs
      && Content_store.interned store = m.intern
      && Content_store.rejects store = m.rejects
      && Content_store.indexed_pages store = List.length m.order
      && Content_store.verify store
      && Array.for_all
           (fun d -> Content_store.mem store d = List.mem d m.order)
           key_digests)

(* --- scripted behaviour ------------------------------------------------- *)

let v i = key_values.(i)
let d i = key_digests.(i)

let test_capacity_zero () =
  let store = Content_store.create ~dedup:true ~capacity_pages:0 () in
  Content_store.insert store (v 0);
  Alcotest.(check bool) "wire insert accepted" true
    (Content_store.insert_wire store (v 1));
  Alcotest.(check (option reject)) "find is None" None
    (Content_store.find store (d 0));
  Alcotest.(check int) "nothing indexed" 0 (Content_store.indexed_pages store);
  Alcotest.(check int) "no hits" 0 (Content_store.hits store);
  Alcotest.(check int) "no misses counted" 0 (Content_store.misses store);
  Alcotest.(check int) "no insertions" 0 (Content_store.insertions store);
  Alcotest.(check int) "no evictions" 0 (Content_store.evictions store)

let test_exact_counters () =
  let store = Content_store.create ~dedup:true ~capacity_pages:2 () in
  Content_store.insert store (v 0);
  Content_store.insert store (v 1);
  Content_store.insert store (v 2);
  (* capacity 2: page 0 was least-recently used and must be the victim *)
  Alcotest.(check bool) "oldest evicted" false (Content_store.mem store (d 0));
  Alcotest.(check (option reject)) "evicted misses" None
    (Content_store.find store (d 0));
  Alcotest.(check bool) "find 1 hits" true
    (Content_store.find store (d 1) <> None);
  Content_store.insert store (v 1);
  Alcotest.(check bool) "find 2 hits" true
    (Content_store.find store (d 2) <> None);
  Alcotest.(check int) "hits" 2 (Content_store.hits store);
  Alcotest.(check int) "misses" 1 (Content_store.misses store);
  Alcotest.(check int) "insertions" 3 (Content_store.insertions store);
  Alcotest.(check int) "evictions" 1 (Content_store.evictions store);
  Alcotest.(check int) "interned" 1 (Content_store.interned store);
  Alcotest.(check int) "indexed" 2 (Content_store.indexed_pages store)

let test_wire_insert_rejects_mismatch () =
  let store = Content_store.create ~dedup:true ~capacity_pages:16 () in
  (* the wire claims digest d1 but the bytes hash to d0: drop it *)
  Alcotest.(check bool) "mismatched insert rejected" false
    (Content_store.insert_wire store ~claimed:(d 1) (v 0));
  Alcotest.(check int) "reject counted" 1 (Content_store.rejects store);
  Alcotest.(check int) "nothing stored" 0 (Content_store.indexed_pages store);
  (* the poisoned name can never serve a hit *)
  Alcotest.(check (option reject)) "claimed digest stays empty" None
    (Content_store.find store (d 1));
  Alcotest.(check bool) "store still verifies" true
    (Content_store.verify store);
  (* an honest copy of the same value is still welcome *)
  Alcotest.(check bool) "honest insert accepted" true
    (Content_store.insert_wire store (v 0));
  Alcotest.(check bool) "honest value served" true
    (Content_store.find store (d 0) <> None)

let test_interning_and_segment_sharing () =
  let store = Content_store.create ~dedup:true ~capacity_pages:16 () in
  Content_store.put_extent store ~segment_id:1 ~offset:0
    (Page_run.singleton (v 3));
  Content_store.put_extent store ~segment_id:2 ~offset:512
    (Page_run.singleton (Page.pattern_value ~tag:97 4));
  Alcotest.(check int) "one physical copy" 1 (Content_store.indexed_pages store);
  Alcotest.(check int) "second put interned" 1 (Content_store.interned store);
  (* dropping a segment forgets offsets, not content *)
  Content_store.drop_segment store ~segment_id:1;
  Alcotest.(check bool) "segment gone" false
    (Content_store.has_segment store ~segment_id:1);
  Alcotest.(check bool) "digest survives the drop" true
    (Content_store.mem store (d 3))

(* With dedup on, a banked extent registers every page's digest in page
   order and holds the index's copy of each page, Gen parts included:
   every read of any segment then hands out one shared value per
   content, which is what the pages pulled into a destination's frames
   point at.  (Keeping a Gen part as a generator would save the store
   its array word per page but give each reader a fresh 3-word value.)
   A twin store fed the same pages as one plain array counts the same
   insertions and interns. *)
let test_banked_extent_shares_values () =
  let literal c = Page.of_bytes (Bytes.make Page.size c) in
  let banked () =
    Page_run.concat
      [
        Page_run.pattern ~tag:0x51 ~first:0 ~len:64;
        Page_run.of_array [| literal 'a'; literal 'b'; literal 'a' |];
        Page_run.pattern ~tag:0x51 ~first:8 ~len:4;
      ]
  in
  let store = Content_store.create ~dedup:true ~capacity_pages:256 () in
  let twin = Content_store.create ~dedup:true ~capacity_pages:256 () in
  List.iter
    (fun segment_id ->
      Content_store.put_extent store ~segment_id ~offset:0 (banked ());
      Content_store.put_extent twin ~segment_id ~offset:0
        (Page_run.of_array (Page_run.to_array (banked ()))))
    [ 1; 2 ];
  let count f = (f store, f twin) in
  Alcotest.(check (pair int int)) "insertions" (66, 66)
    (count Content_store.insertions);
  Alcotest.(check (pair int int)) "interned" (76, 76)
    (count Content_store.interned);
  let read s segment_id =
    Content_store.read_run s ~segment_id ~offset:0 ~pages:71
  in
  List.iter
    (fun segment_id ->
      Alcotest.(check bool) "same pages as banked" true
        (Page_run.equal (banked ()) (read store segment_id));
      Alcotest.(check bool) "same pages as the twin" true
        (Page_run.equal (read twin segment_id) (read store segment_id)))
    [ 1; 2 ];
  let page segment_id k = Page_run.get (read store segment_id) k in
  Alcotest.(check bool) "Gen page shared across segments" true
    (page 1 5 == page 2 5 && page 1 5 == page 1 5);
  Alcotest.(check bool) "repeated Gen page shared" true (page 1 8 == page 1 67);
  Alcotest.(check bool) "duplicate literal shared" true
    (page 1 66 == page 1 64 && page 2 65 == page 1 65)

(* The backing server and the NMS cache share one physical store per
   host — the point of the subsystem. *)
let test_store_shared_per_host () =
  let world = World.create ~n_hosts:1 () in
  let host = World.host world 0 in
  let manager = World.manager world 0 in
  Alcotest.(check bool) "backing server uses the NMS store" true
    (Backing_server.store (Migration_manager.backing manager)
    == Netmsgserver.content_store (Host.nms host))

(* --- end to end --------------------------------------------------------- *)

(* A lossy, corrupting wire: the ARQ layer discards damaged fragments and
   the store re-derives every wire insert's digest, so the migration must
   still complete and the destination store must hold no value whose
   bytes fail to hash to its name. *)
let test_lossy_wire_store_integrity () =
  let fault_plan = Fault_plan.with_corruption 0.05 (Fault_plan.iid 0.02) in
  let result =
    Accent_experiments.Trial.run ~costs:Test_helpers.dedup_costs ~fault_plan
      ~spec:Test_helpers.small_spec ~strategy:Strategy.pure_copy ()
  in
  Alcotest.(check bool) "migration completed" true
    (result.Accent_experiments.Trial.report.Report.completed_at <> None);
  let dest = World.host result.Accent_experiments.Trial.world 1 in
  let store = Netmsgserver.content_store (Host.nms dest) in
  Alcotest.(check bool) "destination saw page content" true
    (Content_store.indexed_pages store > 0);
  World.audit result.Accent_experiments.Trial.world

let test_full_overlap_savings () =
  let t =
    Accent_experiments.Dedup_sweep.run ~spec:Test_helpers.small_spec
      ~overlaps:[ 1.0 ] ~strategies:[ Strategy.pure_copy ] ()
  in
  match t.Accent_experiments.Dedup_sweep.cells with
  | [ cell ] ->
      let pct = Accent_experiments.Dedup_sweep.reduction_pct cell in
      Alcotest.(check bool)
        (Printf.sprintf "wire bytes cut by >=50%% (got %.1f%%)" pct)
        true (pct >= 50.);
      Alcotest.(check bool) "digest hits recorded" true
        (cell.Accent_experiments.Dedup_sweep.on_.Report.dedup_hits > 0);
      Alcotest.(check bool) "digests were checked" true
        (cell.Accent_experiments.Dedup_sweep.on_.Report.dedup_pages_checked
        >= cell.Accent_experiments.Dedup_sweep.on_.Report.dedup_hits)
  | cells ->
      Alcotest.failf "expected one sweep cell, got %d" (List.length cells)

(* Dedup is default-off: no handshake messages, no events, no counters. *)
let test_default_off_is_invisible () =
  let events = ref [] in
  let result =
    Accent_experiments.Trial.run
      ~on_event:(fun ev -> events := ev :: !events)
      ~spec:Test_helpers.small_spec ~strategy:Strategy.pure_copy ()
  in
  let dedup_events =
    List.filter
      (fun ev ->
        match ev.Mig_event.kind with
        | Mig_event.Dedup_digests _ | Mig_event.Dedup_elided _ -> true
        | _ -> false)
      !events
  in
  Alcotest.(check int) "no dedup events" 0 (List.length dedup_events);
  let r = result.Accent_experiments.Trial.report in
  Alcotest.(check int) "no digests checked" 0 r.Report.dedup_pages_checked;
  Alcotest.(check int) "no hits" 0 r.Report.dedup_hits;
  Alcotest.(check int) "no bytes elided" 0 r.Report.dedup_bytes_elided

let suite =
  ( "content_dedup",
    [
      Alcotest.test_case "test universe digests are distinct" `Quick
        test_distinct_digests;
      QCheck_alcotest.to_alcotest prop_lru_matches_oracle;
      Alcotest.test_case "capacity 0 disables cleanly" `Quick
        test_capacity_zero;
      Alcotest.test_case "exact hit/miss/eviction counters" `Quick
        test_exact_counters;
      Alcotest.test_case "wire insert rejects digest mismatch" `Quick
        test_wire_insert_rejects_mismatch;
      Alcotest.test_case "duplicate puts intern to one copy" `Quick
        test_interning_and_segment_sharing;
      Alcotest.test_case "banked extent shares interned values" `Quick
        test_banked_extent_shares_values;
      Alcotest.test_case "backing server and NMS share the store" `Quick
        test_store_shared_per_host;
      Alcotest.test_case "lossy wire never poisons the store" `Quick
        test_lossy_wire_store_integrity;
      Alcotest.test_case "full overlap halves wire bytes" `Quick
        test_full_overlap_savings;
      Alcotest.test_case "dedup off is invisible" `Quick
        test_default_off_is_invisible;
    ] )
