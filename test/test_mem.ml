(* Memory substrate: pages, ranges, physical memory with LRU eviction, the
   paging disk and working sets. *)
open Accent_mem

(* --- Page --- *)

let test_page_constants () =
  Alcotest.(check int) "512-byte pages" 512 Page.size;
  Alcotest.(check int) "index" 2 (Page.index_of_addr 1024);
  Alcotest.(check int) "addr" 1024 (Page.addr_of_index 2)

let test_page_span () =
  Alcotest.(check (pair int int)) "exact pages" (0, 1)
    (Page.span ~lo:0 ~hi:1024);
  Alcotest.(check (pair int int)) "partial end" (0, 2)
    (Page.span ~lo:0 ~hi:1025);
  Alcotest.(check int) "count" 3 (Page.count_in ~lo:511 ~hi:1025);
  Alcotest.(check int) "empty count" 0 (Page.count_in ~lo:10 ~hi:10)

let test_page_pattern_deterministic () =
  let a = Page.pattern ~tag:7 42 and b = Page.pattern ~tag:7 42 in
  Alcotest.(check bool) "same inputs same page" true (Bytes.equal a b);
  let c = Page.pattern ~tag:8 42 in
  Alcotest.(check bool) "tag changes content" false (Bytes.equal a c);
  let d = Page.pattern ~tag:7 43 in
  Alcotest.(check bool) "index changes content" false (Bytes.equal a d)

let test_page_zero () =
  Alcotest.(check bool) "zero page is zero" true (Page.is_zero (Page.zero ()));
  Alcotest.(check bool) "pattern page is not" false
    (Page.is_zero (Page.pattern ~tag:1 1))

let test_page_checksum () =
  let a = Page.pattern ~tag:3 9 in
  Alcotest.(check int) "checksum stable" (Page.checksum a) (Page.checksum a);
  Alcotest.(check bool) "checksum discriminates" true
    (Page.checksum a <> Page.checksum (Page.zero ()))

(* --- Page.value --- *)

let test_value_digest_agreement () =
  (* digest v = checksum (to_bytes v) for every representation *)
  let zero = Page.zero_value in
  Alcotest.(check int) "zero digest" (Page.checksum (Page.zero ()))
    (Page.digest zero);
  let pat = Page.pattern_value ~tag:9 17 in
  Alcotest.(check int) "pattern digest"
    (Page.checksum (Page.pattern ~tag:9 17))
    (Page.digest pat);
  let buf = Page.pattern ~tag:9 17 in
  let lit = Page.of_bytes buf in
  Alcotest.(check int) "literal digest" (Page.checksum buf) (Page.digest lit);
  Alcotest.(check int) "digest is representation-independent"
    (Page.digest pat) (Page.digest lit)

let test_value_equality_across_reps () =
  let pat = Page.pattern_value ~tag:3 5 in
  let lit = Page.of_bytes (Page.pattern ~tag:3 5) in
  Alcotest.(check bool) "pattern = literal of same bytes" true
    (Page.equal_value pat lit);
  Alcotest.(check bool) "symmetric" true (Page.equal_value lit pat);
  Alcotest.(check bool) "distinct tags differ" false
    (Page.equal_value pat (Page.pattern_value ~tag:4 5));
  Alcotest.(check bool) "distinct indices differ" false
    (Page.equal_value pat (Page.pattern_value ~tag:3 6));
  Alcotest.(check bool) "zero = literal zeros" true
    (Page.equal_value Page.zero_value (Page.of_bytes (Page.zero ())));
  Alcotest.(check bool) "zero <> pattern" false
    (Page.equal_value Page.zero_value pat)

let test_value_of_bytes_collapses_zero () =
  (* an all-zero buffer collapses to the symbolic Zero value *)
  Alcotest.(check bool) "zero buffer is symbolic" true
    (Page.is_symbolic (Page.of_bytes (Page.zero ())));
  Alcotest.(check bool) "pattern value is symbolic" true
    (Page.is_symbolic (Page.pattern_value ~tag:1 1));
  Alcotest.(check bool) "nonzero buffer is literal" false
    (Page.is_symbolic (Page.of_bytes (Page.pattern ~tag:1 1)))

let test_value_of_bytes_copies () =
  let buf = Page.pattern ~tag:2 2 in
  let v = Page.of_bytes buf in
  Bytes.set buf 0 '\255';
  Alcotest.(check bool) "caller's buffer stays owned by caller" true
    (Bytes.equal (Page.to_bytes v) (Page.pattern ~tag:2 2));
  Alcotest.check_raises "wrong size rejected"
    (Invalid_argument "Page.of_bytes: not exactly one page") (fun () ->
      ignore (Page.of_bytes (Bytes.create 100)))

let test_values_bytes_roundtrip () =
  let buf = Bytes.create (3 * Page.size) in
  Bytes.blit (Page.pattern ~tag:7 0) 0 buf 0 Page.size;
  Bytes.fill buf Page.size Page.size '\000';
  Bytes.blit (Page.pattern ~tag:7 2) 0 buf (2 * Page.size) Page.size;
  let values = Page.values_of_bytes buf in
  Alcotest.(check int) "one value per page" 3 (Array.length values);
  Alcotest.(check bool) "middle page collapses to Zero" true
    (Page.is_symbolic values.(1));
  Alcotest.(check bool) "roundtrip" true
    (Bytes.equal buf (Page.bytes_of_values values));
  Alcotest.check_raises "non-multiple rejected"
    (Invalid_argument "Page.values_of_bytes: not a page multiple") (fun () ->
      ignore (Page.values_of_bytes (Bytes.create 100)))

let prop_value_roundtrip_and_digest =
  QCheck.Test.make ~name:"of_bytes/to_bytes roundtrip preserves digest"
    QCheck.(pair (int_range 0 1000) small_nat)
    (fun (tag, idx) ->
      let buf = Page.pattern ~tag idx in
      let v = Page.of_bytes buf in
      Bytes.equal buf (Page.to_bytes v)
      && Page.digest v = Page.checksum buf
      && Page.equal_value v (Page.pattern_value ~tag idx))

(* Keys on both sides of the digest memo's packing bounds: tag in
   [0, 2^30), idx in [0, 2^32), and negative or too-wide ones. *)
let key_gen ~bits =
  let bound = 1 lsl bits in
  QCheck.Gen.(
    oneof
      [
        int_range 0 (bound - 1);
        oneofl [ 0; bound - 1; bound; -1; min_int; max_int ];
        int_range bound max_int;
        int_range min_int (-1);
      ])

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Page.zero_value;
        map2
          (fun tag idx -> Page.pattern_value ~tag idx)
          (key_gen ~bits:30) (key_gen ~bits:32);
        map
          (fun s -> Page.of_bytes (Bytes.of_string s))
          (string_size ~gen:char (return Page.size));
      ])

let print_value = function
  | Page.Zero -> "Zero"
  | Page.Pattern { tag; idx } -> Printf.sprintf "Pattern (%d, %d)" tag idx
  | Page.Literal { digest; _ } -> Printf.sprintf "Literal %d" digest

(* The checksum contract: the fused re-derivation and the digest (a
   memo miss, then a hit) all equal the checksum of the materialised
   bytes; and a wire insert re-derives rather than trusting any name. *)
let prop_checksum_contract =
  QCheck.Test.make ~long_factor:50
    ~name:"checksum_value = digest (miss, hit) = checksum of the bytes"
    (QCheck.make ~print:print_value value_gen)
    (fun v ->
      let c = Page.checksum (Page.to_bytes v) in
      Page.checksum_value v = c
      && Page.digest v = c
      && Page.digest v = c
      &&
      match v with
      | Page.Literal { data; digest } ->
          let module C = Accent_net.Content_store in
          let store = C.create ~dedup:true () in
          let forged = Page.Literal { data; digest = digest lxor 1 } in
          (not (C.insert_wire store ~claimed:(c lxor 1) v))
          && (not (C.insert_wire store forged))
          && C.rejects store = 2
          && C.insert_wire store v
      | Page.Zero | Page.Pattern _ -> true)

(* A page run as data: Gen parts (tags and indices on both sides of the
   memo's packing bounds, first pages anywhere in a 64-page chunk) and
   Slices of Zero, Pattern and Literal values, concatenated. *)
type run_part = Gen of int * int * int | Values of Page.value list

let run_part_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun tag first len -> Gen (tag, first, len))
          (key_gen ~bits:30)
          (oneof [ key_gen ~bits:32; int_range 0 1000 ])
          (int_range 0 200);
        map (fun vs -> Values vs) (list_size (int_range 0 200) value_gen);
      ])

let print_run_part = function
  | Gen (tag, first, len) -> Printf.sprintf "Gen (%d, %d, %d)" tag first len
  | Values vs -> "[" ^ String.concat "; " (List.map print_value vs) ^ "]"

(* The run of [parts], with every memoizable tag moved by [salt] (one
   fresh value per case, below 2^30), so its Pattern pages start cold. *)
let run_of_parts ~salt parts =
  let retag tag = if tag lsr 30 = 0 then tag lxor salt else tag in
  let value = function
    | Page.Pattern { tag; idx } -> Page.pattern_value ~tag:(retag tag) idx
    | v -> v
  in
  Page_run.concat
    (List.map
       (function
         | Gen (tag, first, len) ->
             Page_run.pattern ~tag:(retag tag) ~first:(max 0 first) ~len
         | Values vs -> Page_run.of_list (List.map value vs))
       parts)

let run_salt = ref 0

(* Run digests and checksums equal the per-page checksum of the bytes,
   from a cold memo, from one partly warmed by single-page digests, and
   warm; and a run-level wire insert holding a forged Literal and a
   mis-claimed page rejects exactly those two and stores the rest. *)
let prop_run_digests =
  QCheck.Test.make ~long_factor:50
    ~name:"run digests and checksums = per-page checksum of the bytes"
    QCheck.(
      make
        ~print:Print.(pair (list print_run_part) int)
        Gen.(pair (list_size (int_range 1 4) run_part_gen) (int_range 0 99)))
    (fun (parts, warm_every) ->
      incr run_salt;
      let salt = (!run_salt * 0x9E37) land 0x3FFFFFFF in
      let per_page run =
        Array.init (Page_run.length run) (fun i ->
            Page.checksum (Page.to_bytes (Page_run.get run i)))
      in
      let run = run_of_parts ~salt parts in
      let n = Page_run.length run in
      let expected = per_page run in
      let cold_digests = Page_run.digests run in
      let cold_checksums = Page_run.checksums run in
      (* warm every [warm_every + 1]-th page of a second copy one page at
         a time, then take its run digests *)
      let run2 = run_of_parts ~salt:(salt lxor 0x2AAAAAAA) parts in
      for i = 0 to n - 1 do
        if i mod (warm_every + 1) = 0 then
          ignore (Page.digest (Page_run.get run2 i))
      done;
      let partly_warm = Page_run.digests run2 in
      let expected2 = per_page run2 in
      let wire_ok =
        let module C = Accent_net.Content_store in
        let data = Bytes.make Page.size '\x5A' in
        let good = Page.checksum data in
        let forged = Page.Literal { data; digest = good lxor 1 } in
        let wire = Page_run.concat [ run; Page_run.singleton forged ] in
        let claimed = Page_run.digests wire in
        (* page [mis] is mis-claimed; with no page before the forged
           one, only the forged one is rejected *)
        let mis = if n = 0 then -1 else warm_every mod n in
        if mis >= 0 then claimed.(mis) <- claimed.(mis) lxor 1;
        let store = C.create ~dedup:true ~capacity_pages:1_000 () in
        let stored = C.insert_wire_run store ~claimed wire in
        let rejected = if mis < 0 then 1 else 2 in
        C.rejects store = rejected
        && stored = n + 1 - rejected
        && (not (C.mem store good))
        && (not (C.mem store claimed.(n)))
        && (mis < 0 || not (C.mem store claimed.(mis)))
        && List.for_all
             (fun i -> i = mis || C.mem store expected.(i))
             (List.init n Fun.id)
      in
      cold_digests = expected
      && cold_checksums = expected
      && Page_run.digests run = expected
      && Page_run.checksums run = expected
      && partly_warm = expected2
      && Page_run.checksums run2 = expected2
      && wire_ok)

let prop_span_count_consistent =
  QCheck.Test.make ~name:"span and count agree"
    QCheck.(pair (int_range 0 100_000) (int_range 1 100_000))
    (fun (lo, len) ->
      let hi = lo + len in
      let first, last = Page.span ~lo ~hi in
      Page.count_in ~lo ~hi = last - first + 1)

(* --- Vaddr --- *)

let test_vaddr_basic () =
  let r = Vaddr.range 100 200 in
  Alcotest.(check int) "len" 100 (Vaddr.len r);
  Alcotest.(check bool) "contains lo" true (Vaddr.contains r 100);
  Alcotest.(check bool) "excludes hi" false (Vaddr.contains r 200);
  Alcotest.(check bool) "overlap" true
    (Vaddr.overlaps r (Vaddr.range 150 250));
  Alcotest.(check bool) "no overlap when abutting" false
    (Vaddr.overlaps r (Vaddr.range 200 300))

let test_vaddr_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Vaddr.range") (fun () ->
      ignore (Vaddr.range 10 5));
  Alcotest.check_raises "beyond 4GB" (Invalid_argument "Vaddr.range")
    (fun () -> ignore (Vaddr.range 0 (Vaddr.space_limit + 1)))

let test_vaddr_intersect () =
  let a = Vaddr.range 0 100 and b = Vaddr.range 50 150 in
  (match Vaddr.intersect a b with
  | Some r ->
      Alcotest.(check int) "lo" 50 r.Vaddr.lo;
      Alcotest.(check int) "hi" 100 r.Vaddr.hi
  | None -> Alcotest.fail "expected intersection");
  Alcotest.(check bool) "disjoint" true
    (Vaddr.intersect a (Vaddr.range 100 200) = None)

let test_vaddr_align () =
  let r = Vaddr.align_out (Vaddr.range 100 1000) in
  Alcotest.(check int) "aligned lo" 0 r.Vaddr.lo;
  Alcotest.(check int) "aligned hi" 1024 r.Vaddr.hi;
  Alcotest.(check bool) "is aligned" true (Vaddr.page_aligned r)

(* --- Phys_mem --- *)

let test_phys_alloc_read () =
  let mem = Phys_mem.create ~frames:4 in
  let data = Page.pattern ~tag:1 0 in
  let f = Phys_mem.allocate mem ~space_id:1 ~page:0 (Page.of_bytes data) in
  Alcotest.(check bool) "content preserved" true
    (Bytes.equal data (Page.to_bytes (Phys_mem.read mem f)));
  Alcotest.(check int) "in use" 1 (Phys_mem.in_use mem);
  Alcotest.(check int) "free" 3 (Phys_mem.free_frames mem);
  (* of_bytes copies: mutating the source must not affect the frame *)
  Bytes.set data 0 'X';
  Alcotest.(check bool) "defensive copy" false
    (Bytes.equal data (Page.to_bytes (Phys_mem.read mem f)))

let test_phys_write_dirty () =
  let mem = Phys_mem.create ~frames:2 in
  let f = Phys_mem.allocate mem ~space_id:1 ~page:0 Page.zero_value in
  Alcotest.(check bool) "clean initially" false (Phys_mem.is_dirty mem f);
  Phys_mem.write mem f (Page.pattern_value ~tag:2 0);
  Alcotest.(check bool) "dirty after write" true (Phys_mem.is_dirty mem f)

let test_phys_lru_eviction () =
  let mem = Phys_mem.create ~frames:2 in
  let evicted = ref [] in
  Phys_mem.set_evict_handler mem (fun ~space_id:_ ~page _ ~dirty:_ ->
      evicted := page :: !evicted);
  let f0 = Phys_mem.allocate mem ~space_id:1 ~page:0 Page.zero_value in
  let _f1 = Phys_mem.allocate mem ~space_id:1 ~page:1 Page.zero_value in
  (* touch page 0 so page 1 is the LRU victim *)
  Phys_mem.touch mem f0;
  let _f2 = Phys_mem.allocate mem ~space_id:1 ~page:2 Page.zero_value in
  Alcotest.(check (list int)) "evicted the LRU page" [ 1 ] !evicted;
  Alcotest.(check int) "eviction count" 1 (Phys_mem.evictions mem)

let test_phys_free_recycles () =
  let mem = Phys_mem.create ~frames:1 in
  let f = Phys_mem.allocate mem ~space_id:1 ~page:0 Page.zero_value in
  Phys_mem.free mem f;
  Alcotest.(check int) "freed" 0 (Phys_mem.in_use mem);
  (* no evict handler needed: the freed frame is reused *)
  let _f2 = Phys_mem.allocate mem ~space_id:1 ~page:1 Page.zero_value in
  Alcotest.(check int) "reused" 1 (Phys_mem.in_use mem)

(* A scripted allocate/free/touch/write sequence on a 4-frame pool,
   pinned: the frame ids handed out (a free list that reuses the most
   recently freed id first) and every eviction, as (space, page, dirty)
   in call order.  Page-table entries and paging-disk block ids are
   derived from this order, so it must not move. *)
let test_phys_pinned_sequence () =
  let mem = Phys_mem.create ~frames:4 in
  let evictions = ref [] in
  Phys_mem.set_evict_handler mem (fun ~space_id ~page _ ~dirty ->
      evictions := (space_id, page, dirty) :: !evictions);
  let alloc space page =
    Phys_mem.allocate mem ~space_id:space ~page Page.zero_value
  in
  let ids = ref [] in
  let take space page = ids := alloc space page :: !ids in
  let frame n = List.nth (List.rev !ids) n in
  take 1 0;
  take 1 1;
  take 2 0;
  take 2 1;
  Phys_mem.touch mem (frame 0);
  Phys_mem.free mem (frame 1);
  take 3 0;
  Phys_mem.write mem (frame 2) (Page.pattern_value ~tag:5 0);
  take 3 1;
  take 3 2;
  Phys_mem.free mem (frame 4);
  Phys_mem.free mem (frame 6);
  take 4 0;
  take 4 1;
  ignore (Phys_mem.read mem (frame 2));
  take 4 2;
  take 4 3;
  Phys_mem.write mem (frame 8) (Page.pattern_value ~tag:5 1);
  take 5 0;
  take 5 1;
  Alcotest.(check (list int))
    "frame ids" [ 0; 1; 2; 3; 1; 3; 0; 0; 1; 3; 0; 2; 3 ] (List.rev !ids);
  Alcotest.(check (list (triple int int bool)))
    "evictions"
    [ (2, 1, false); (1, 0, false); (3, 1, false); (4, 0, false); (2, 0, true);
      (4, 2, false) ]
    (List.rev !evictions);
  Alcotest.(check int) "in use" 4 (Phys_mem.in_use mem);
  Alcotest.(check (option int)) "next victim" (Some 0)
    (Phys_mem.choose_victim mem)

(* A recency bump is the reference path's innermost step, so it must
   allocate nothing: no closure, no boxed pair.  A 256-frame pool
   compacts its queue about every 256 touches, so 100k touches cross
   hundreds of compactions; a warm-up round lets the ring reach its
   steady size first. *)
let test_phys_touch_allocates_nothing () =
  let pool = 256 in
  let mem = Phys_mem.create ~frames:pool in
  let ids =
    Array.init pool (fun i ->
        Phys_mem.allocate mem ~space_id:1 ~page:i Page.zero_value)
  in
  let touches n =
    for i = 0 to n - 1 do
      Phys_mem.touch mem ids.(i * 7919 mod pool)
    done
  in
  touches 10_000;
  let words0 = Gc.minor_words () in
  touches 100_000;
  let words = Gc.minor_words () -. words0 in
  if words >= 64. then
    Alcotest.failf "100k touches allocated %.0f minor words" words

(* --- Paging_disk --- *)

let test_disk_roundtrip () =
  let disk = Paging_disk.create () in
  let value = Page.pattern_value ~tag:5 3 in
  let b = Paging_disk.alloc disk value in
  Alcotest.(check bool) "roundtrip" true
    (Page.equal_value value (Paging_disk.read disk b));
  Paging_disk.write disk b Page.zero_value;
  Alcotest.(check bool) "overwrite" true
    (Page.is_zero (Page.to_bytes (Paging_disk.read disk b)));
  Alcotest.(check int) "in use" 1 (Paging_disk.blocks_in_use disk);
  Paging_disk.free disk b;
  Alcotest.(check int) "freed" 0 (Paging_disk.blocks_in_use disk)

let test_disk_unknown_block () =
  let disk = Paging_disk.create () in
  Alcotest.check_raises "read unknown"
    (Invalid_argument "Paging_disk: unknown block") (fun () ->
      ignore (Paging_disk.read disk 42))

let test_disk_double_free () =
  let disk = Paging_disk.create () in
  let b = Paging_disk.alloc disk Page.zero_value in
  Paging_disk.free disk b;
  Alcotest.check_raises "second free rejected"
    (Invalid_argument "Paging_disk.free: double free") (fun () ->
      Paging_disk.free disk b);
  Alcotest.check_raises "read after free"
    (Invalid_argument "Paging_disk: block already freed") (fun () ->
      ignore (Paging_disk.read disk b));
  Alcotest.check_raises "freeing a never-allocated block"
    (Invalid_argument "Paging_disk.free: unknown block") (fun () ->
      Paging_disk.free disk 9999)

let test_disk_realloc_clears_freed_mark () =
  let disk = Paging_disk.create () in
  let b = Paging_disk.alloc disk Page.zero_value in
  Paging_disk.free disk b;
  (* the free list recycles the block id; the stale-free mark must clear *)
  let b' = Paging_disk.alloc disk (Page.pattern_value ~tag:1 1) in
  Alcotest.(check int) "block id recycled" b b';
  Alcotest.(check bool) "readable again" true
    (Page.equal_value (Page.pattern_value ~tag:1 1) (Paging_disk.read disk b'));
  Paging_disk.free disk b'
  (* a clean single free of the recycled block must not raise *)

let test_disk_pattern_stays_symbolic () =
  let disk = Paging_disk.create () in
  let v = Page.pattern_value ~tag:11 4 in
  let b = Paging_disk.alloc disk v in
  let back = Paging_disk.read disk b in
  Alcotest.(check bool) "no materialization on the disk" true
    (Page.is_symbolic back);
  Alcotest.(check bool) "content intact" true (Page.equal_value v back)

(* --- Working_set --- *)

let test_working_set_window () =
  let ws = Working_set.create ~window:100. in
  Working_set.reference ws ~clock:[| 0. |] 1;
  Working_set.reference ws ~clock:[| 50. |] 2;
  Working_set.reference ws ~clock:[| 120. |] 3;
  Alcotest.(check int) "page 1 aged out at t=120" 2
    (Working_set.size_at ws ~time:120.);
  Alcotest.(check (list int)) "members" [ 2; 3 ]
    (Working_set.pages_at ws ~time:120.);
  Alcotest.(check int) "total refs" 3 (Working_set.references ws);
  Alcotest.(check int) "distinct" 3 (Working_set.distinct_pages ws)

let test_working_set_rereference_refreshes () =
  let ws = Working_set.create ~window:100. in
  Working_set.reference ws ~clock:[| 0. |] 1;
  Working_set.reference ws ~clock:[| 90. |] 1;
  Alcotest.(check int) "re-reference keeps page in" 1
    (Working_set.size_at ws ~time:150.)

(* --- hot-path equivalence properties --- *)

(* The old O(frames) victim scan, kept as the executable spec: the
   queue-based [Phys_mem.choose_victim] must agree with it after every
   step of any alloc/touch/free trace.  Stamps are unique, so the spec
   answer is unique and the comparison is exact.  The 40-frame pool and
   touch-heavy traces pile up enough stale pairs that the queue compacts
   (at 64 queued pairs or more), so a compaction that reorders or
   mis-restamps the survivors shows up here. *)
let linear_scan_victim model =
  Hashtbl.fold
    (fun id last_use best ->
      match best with
      | Some (_, best_last) when best_last <= last_use -> best
      | _ -> Some (id, last_use))
    model None
  |> Option.map fst

let prop_victim_equals_linear_scan =
  QCheck.Test.make ~long_factor:50
    ~name:"LRU victim choice = linear-scan fold"
    QCheck.(
      list_of_size Gen.(int_range 0 400) (pair (int_range 0 99) small_nat))
    (fun ops ->
      let cap = 40 in
      let mem = Phys_mem.create ~frames:cap in
      Phys_mem.set_evict_handler mem (fun ~space_id:_ ~page:_ _ ~dirty:_ -> ());
      (* id -> last_use, advanced in lockstep with the pool *)
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let clock = ref 0 in
      let next_page = ref 0 in
      let ok = ref true in
      List.iter
        (fun (kind, arg) ->
          let ids =
            Hashtbl.fold (fun id _ acc -> id :: acc) model []
            |> List.sort compare
          in
          let n = List.length ids in
          let pick () = List.nth ids (arg mod n) in
          (if kind < 30 then begin
             if n >= cap then
               Hashtbl.remove model (Option.get (linear_scan_victim model));
             incr next_page;
             let id =
               Phys_mem.allocate mem
                 ~space_id:0 ~page:!next_page
                 Page.zero_value
             in
             incr clock;
             Hashtbl.replace model id !clock
           end
           else if n = 0 then ()
           else if kind < 90 then begin
             let id = pick () in
             Phys_mem.touch mem id;
             incr clock;
             Hashtbl.replace model id !clock
           end
           else begin
             let id = pick () in
             Phys_mem.free mem id;
             Hashtbl.remove model id
           end);
          if Phys_mem.choose_victim mem <> linear_scan_victim model then
            ok := false;
          if Phys_mem.in_use mem <> Hashtbl.length model then ok := false)
        ops;
      !ok)

(* The old fold over every page ever referenced, as the spec for the
   recency-list working set.  Windows range well past τ (exercising
   the exhaustive-fold fallback behind the prune high-water mark) and
   query times reach back before the newest reference.  Up to 201
   distinct pages grow the slot arrays through several doublings, and
   an export→import into a fresh estimator, taken mid-sequence and at
   the end, must answer every query asked so far exactly as the
   original does — and keep matching the model as references go on. *)
let prop_working_set_equals_fold =
  QCheck.Test.make ~name:"pruned working-set queries = fold over all refs"
    QCheck.(
      list_of_size
        Gen.(int_range 0 600)
        (triple (int_range 0 5) (int_range 0 100) (int_range 0 200)))
    (fun events ->
      let tau = 50. in
      let ws = ref (Working_set.create ~window:tau) in
      let model : (int, float) Hashtbl.t = Hashtbl.create 32 in
      let now = ref 0. in
      let asked = ref [] in
      let ok = ref true in
      let fold_within ~time ~window =
        Hashtbl.fold
          (fun idx last acc ->
            if last >= time -. window && last <= time then idx :: acc else acc)
          model []
        |> List.sort compare
      in
      let answers ws =
        ( Working_set.references ws,
          Working_set.distinct_pages ws,
          Working_set.pages_at ws ~time:!now,
          Working_set.size_at ws ~time:!now,
          List.map
            (fun (time, window) -> Working_set.pages_within ws ~time ~window)
            !asked )
      in
      let roundtrip () =
        let fresh = Working_set.create ~window:tau in
        Working_set.import fresh (Working_set.export !ws);
        if answers fresh <> answers !ws then ok := false;
        ws := fresh
      in
      List.iter
        (fun (kind, a, b) ->
          match kind with
          | 0 | 1 | 2 ->
              now := !now +. (float_of_int a /. 10.);
              Working_set.reference !ws ~clock:[| !now |] b;
              Hashtbl.replace model b !now
          | 3 ->
              let window = float_of_int (a * 5) in
              let time = !now -. (float_of_int b /. 4.) in
              asked := (time, window) :: !asked;
              if
                Working_set.pages_within !ws ~time ~window
                <> fold_within ~time ~window
              then ok := false
          | 4 ->
              let expected = fold_within ~time:!now ~window:tau in
              if Working_set.pages_at !ws ~time:!now <> expected then
                ok := false;
              if Working_set.size_at !ws ~time:!now <> List.length expected
              then ok := false
          | _ -> if a < 10 then roundtrip ())
        events;
      roundtrip ();
      if Working_set.distinct_pages !ws <> Hashtbl.length model then
        ok := false;
      !ok)

(* The cold store against a naive per-page model: page -> (value, in a
   frame or on disk), plus the touched set and the pages still held in a
   cold run.  Random installs of 1-40 pages land anywhere in a 200-page
   window, so they cross the old 16-page bulk threshold, overlap earlier
   installs (the per-page overwrite path) and arrive out of address order
   (the cold index's shift path).  Disk faults, references, the
   evictions a 12-frame pool forces, a page faulted out of its cold run,
   evicted by another space's installs and faulted in again, and export
   -> destroy -> import round trips are interleaved; after every step
   every page's presence class and value, the resident set, and the
   space's touched, resident and materialized counts must match the
   model. *)
type model_home = M_frame | M_disk

let prop_cold_store_equals_per_page_model =
  QCheck.Test.make ~long_factor:50 ~name:"cold-extent store = per-page model"
    QCheck.(
      list_of_size
        Gen.(int_range 0 40)
        (quad (int_range 0 11) small_nat small_nat small_nat))
    (fun ops ->
      let window = 200 in
      let mem = Phys_mem.create ~frames:12 and disk = Paging_disk.create () in
      let model : (int, Page.value * model_home) Hashtbl.t =
        Hashtbl.create 64
      in
      let touched : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      let cold : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      let fresh_space id = Address_space.create ~id ~mem ~disk in
      let space = ref (fresh_space 1) and other = ref (fresh_space 2) in
      (* A host-style handler dispatching on the owner.  An install over
         resident pages may evict one of them before its turn to be
         overwritten: the model, already holding the new value, ignores
         that stale eviction.  Every install gets a fresh tag, so old and
         new values never compare equal. *)
      Phys_mem.set_evict_handler mem (fun ~space_id ~page:idx value ~dirty ->
          if space_id = 2 then
            Address_space.evict_page !other idx value ~dirty
          else begin
            Address_space.evict_page !space idx value ~dirty;
            match Hashtbl.find_opt model idx with
            | Some (v, M_frame) when Page.equal_value v value ->
                Hashtbl.replace model idx (v, M_disk)
            | _ -> ()
          end);
      let tag = ref 0 in
      let ok = ref true in
      let homed home =
        Hashtbl.fold
          (fun idx (_, h) acc -> if h = home then idx :: acc else acc)
          model []
        |> List.sort compare
      in
      let check () =
        let s = !space in
        for idx = 0 to window - 1 do
          match
            (Hashtbl.find_opt model idx, Address_space.presence_of_page s idx)
          with
          | None, Address_space.Invalid -> ()
          | Some (v, M_frame), Address_space.Resident _
          | Some (v, M_disk), Address_space.Paged_out -> (
              match Address_space.page_value s idx with
              | Some got when Page.equal_value got v -> ()
              | _ -> ok := false)
          | _ -> ok := false
        done;
        let n = Hashtbl.length model and resident = homed M_frame in
        if Address_space.pages_materialized s <> n then ok := false;
        if Address_space.real_bytes s <> n * Page.size then ok := false;
        if Address_space.touched_pages s <> Hashtbl.length touched then
          ok := false;
        if Address_space.resident_page_count s <> List.length resident then
          ok := false;
        if List.map fst (Address_space.resident_pages s) <> resident then
          ok := false
      in
      let reference idx =
        Hashtbl.replace touched idx ();
        let expected =
          match Hashtbl.find_opt model idx with
          | Some (_, M_frame) -> true
          | Some (_, M_disk) | None -> false
        in
        if Address_space.reference !space idx <> expected then ok := false
      in
      let disk_fault idx =
        let v, _ = Hashtbl.find model idx in
        Hashtbl.replace model idx (v, M_frame);
        Hashtbl.remove cold idx;
        Address_space.resolve_disk_fault !space idx
      in
      let pick l a = List.nth l (a mod List.length l) in
      List.iter
        (fun (kind, a, b, c) ->
          (if kind < 5 then begin
             let first = a mod (window - 40) and len = 1 + (b mod 40) in
             let resident = c mod 3 = 0 in
             let fresh = ref true in
             for idx = first to first + len - 1 do
               if Hashtbl.mem model idx then fresh := false
             done;
             incr tag;
             let run =
               Page_run.init len (fun i ->
                   Page.pattern_value ~tag:!tag (first + i))
             in
             Page_run.iteri
               (fun i v ->
                 let idx = first + i in
                 Hashtbl.replace model idx
                   (v, if resident then M_frame else M_disk);
                 if (not resident) && !fresh then Hashtbl.replace cold idx ()
                 else Hashtbl.remove cold idx)
               run;
             Address_space.install_run !space ~addr:(Page.addr_of_index first)
               run ~resident
           end
           else if kind < 8 then begin
             match homed M_disk with
             | [] -> ()
             | on_disk -> disk_fault (pick on_disk a)
           end
           else if kind < 10 then begin
             (* a touched page again, or any page of the window *)
             let ts = Hashtbl.fold (fun idx () acc -> idx :: acc) touched [] in
             if b mod 2 = 0 && ts <> [] then
               reference (pick (List.sort compare ts) a)
             else reference (a mod window)
           end
           else if kind = 10 then begin
             (* fault a page out of its cold run, evict it by filling the
                pool from another space, and fault it in again *)
             let on_disk = homed M_disk in
             let candidates =
               match List.filter (Hashtbl.mem cold) on_disk with
               | [] -> on_disk
               | still_cold -> still_cold
             in
             match candidates with
             | [] -> ()
             | l ->
                 let idx = pick l a in
                 reference idx;
                 disk_fault idx;
                 reference idx;
                 Address_space.install_run !other ~addr:0
                   (Page_run.init (Phys_mem.capacity mem) (fun i ->
                        Page.pattern_value ~tag:(-1) i))
                   ~resident:true;
                 Address_space.destroy !other;
                 other := fresh_space 2;
                 if Hashtbl.find model idx |> snd <> M_disk then ok := false;
                 reference idx;
                 disk_fault idx;
                 reference idx
           end
           else begin
             let image = Address_space.export_image !space in
             Address_space.destroy !space;
             if Address_space.touched_pages !space <> Hashtbl.length touched
             then ok := false;
             let leaked =
               Phys_mem.in_use mem + Paging_disk.blocks_in_use disk
             in
             if leaked <> 0 then ok := false;
             space := fresh_space 1;
             Hashtbl.reset touched;
             Address_space.import_image !space image;
             let back = Address_space.export_image !space in
             if not (Address_space.image_equal back image) then ok := false
           end);
          check ())
        ops;
      !ok)

let suite =
  ( "mem",
    [
      Alcotest.test_case "page constants" `Quick test_page_constants;
      Alcotest.test_case "page span" `Quick test_page_span;
      Alcotest.test_case "page pattern" `Quick test_page_pattern_deterministic;
      Alcotest.test_case "page zero" `Quick test_page_zero;
      Alcotest.test_case "page checksum" `Quick test_page_checksum;
      Alcotest.test_case "value digest agreement" `Quick
        test_value_digest_agreement;
      Alcotest.test_case "value equality across reps" `Quick
        test_value_equality_across_reps;
      Alcotest.test_case "of_bytes collapses zero" `Quick
        test_value_of_bytes_collapses_zero;
      Alcotest.test_case "of_bytes copies" `Quick test_value_of_bytes_copies;
      Alcotest.test_case "values/bytes roundtrip" `Quick
        test_values_bytes_roundtrip;
      QCheck_alcotest.to_alcotest prop_value_roundtrip_and_digest;
      QCheck_alcotest.to_alcotest prop_span_count_consistent;
      QCheck_alcotest.to_alcotest prop_checksum_contract;
      QCheck_alcotest.to_alcotest prop_run_digests;
      Alcotest.test_case "vaddr basics" `Quick test_vaddr_basic;
      Alcotest.test_case "vaddr invalid" `Quick test_vaddr_invalid;
      Alcotest.test_case "vaddr intersect" `Quick test_vaddr_intersect;
      Alcotest.test_case "vaddr align" `Quick test_vaddr_align;
      Alcotest.test_case "phys alloc/read" `Quick test_phys_alloc_read;
      Alcotest.test_case "phys write dirty" `Quick test_phys_write_dirty;
      Alcotest.test_case "phys LRU eviction" `Quick test_phys_lru_eviction;
      Alcotest.test_case "phys free recycles" `Quick test_phys_free_recycles;
      Alcotest.test_case "phys pinned sequence" `Quick
        test_phys_pinned_sequence;
      Alcotest.test_case "phys touch allocates nothing" `Quick
        test_phys_touch_allocates_nothing;
      Alcotest.test_case "disk roundtrip" `Quick test_disk_roundtrip;
      Alcotest.test_case "disk unknown block" `Quick test_disk_unknown_block;
      Alcotest.test_case "disk double free" `Quick test_disk_double_free;
      Alcotest.test_case "disk realloc clears freed mark" `Quick
        test_disk_realloc_clears_freed_mark;
      Alcotest.test_case "disk keeps pages symbolic" `Quick
        test_disk_pattern_stays_symbolic;
      Alcotest.test_case "working set window" `Quick test_working_set_window;
      Alcotest.test_case "working set refresh" `Quick
        test_working_set_rereference_refreshes;
      QCheck_alcotest.to_alcotest prop_victim_equals_linear_scan;
      QCheck_alcotest.to_alcotest prop_working_set_equals_fold;
      QCheck_alcotest.to_alcotest prop_cold_store_equals_per_page_model;
    ] )
