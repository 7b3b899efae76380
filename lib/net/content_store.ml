open Accent_mem
module Int_tbl = Accent_util.Int_tbl

(* One per host, owned by its NetMsgServer.  Two layers share it:

   - the segment/offset layer is the NMS Data-chunk cache and the
     MigrationManager's backing store: each segment is an interval map
     of extents by byte offset, each a run adopted in O(log extents)
     when it lands after the others (the NetMsgServer caches every
     outbound Data chunk this way, so a per-page path would put an
     O(space) insert loop on every migration send);

   - the digest layer names every page value the host has seen, across
     all segments and all migrations, and is what the digest-first
     handshake consults.  It is an opportunistic cache: LRU-bounded,
     and losing an entry can never lose data, because segment contents
     hold their values directly.

   With [dedup] off the digest layer is never touched. *)

(* A segment maps each extent's byte range to its start and its run;
   extents compare with [==], so adjacent ones never coalesce. *)
type seg = (int * Page_run.t) Interval_map.t

type entry = {
  value : Page.value;
  mutable tick : int; (* stamp of its live pair *)
}

(* The recency order is an [Accent_util.Stamp_fifo] of digests: every
   touch pushes the digest with the queue's next stamp and records it in
   the entry, so push order is LRU order and the head is always the
   least recently used candidate.  A queued pair is live iff the index
   still maps its digest to an entry carrying that stamp; an evicted
   digest leaves the index, so none of its pairs stay live. *)
type t = {
  dedup : bool;
  capacity_pages : int;
  segs : seg Int_tbl.t; (* segment id -> contents *)
  index : entry Int_tbl.t; (* digest -> value *)
  lru : Accent_util.Stamp_fifo.t;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable rejects : int;
  mutable interned : int;
}

let create ?(dedup = false) ?(capacity_pages = 4096) () =
  {
    dedup;
    capacity_pages = max 0 capacity_pages;
    segs = Int_tbl.create 16;
    index = Int_tbl.create 16;
    lru = Accent_util.Stamp_fifo.create ();
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    rejects = 0;
    interned = 0;
  }

let dedup_enabled t = t.dedup
let capacity_pages t = t.capacity_pages

(* --- the recency queue -------------------------------------------------- *)

let digest_live t digest tick =
  match Int_tbl.find t.index digest with
  | entry -> entry.tick = tick
  | exception Not_found -> false

let digest_restamp t digest tick = (Int_tbl.find t.index digest).tick <- tick

(* A fresh stamp for [digest], its pair queued at the tail. *)
let stamp t digest =
  Accent_util.Stamp_fifo.push t.lru ~live:digest_live ~restamp:digest_restamp t
    ~live_count:(Int_tbl.length t.index) digest

(* Every index entry has a live pair, so an over-full index has a head. *)
let evict_oldest t =
  let digest = Accent_util.Stamp_fifo.oldest t.lru ~live:digest_live t in
  Accent_util.Stamp_fifo.pop t.lru;
  Int_tbl.remove t.index digest;
  t.evictions <- t.evictions + 1

(* --- the digest layer --------------------------------------------------- *)

(* Remember [value] under [digest], returning the stored (possibly
   pre-existing, physically shared) copy. *)
let remember t digest value =
  if t.capacity_pages = 0 then value
  else
    match Int_tbl.find_opt t.index digest with
    | Some entry ->
        t.interned <- t.interned + 1;
        entry.tick <- stamp t digest;
        entry.value
    | None ->
        Int_tbl.replace t.index digest { value; tick = stamp t digest };
        t.insertions <- t.insertions + 1;
        if Int_tbl.length t.index > t.capacity_pages then evict_oldest t;
        value

let insert t value = ignore (remember t (Page.digest value) value)

(* Every insert coming off the wire re-derives each page's digest from
   its content ([Page_run.checksums]: no memo, no stored digest) and
   compares it with the page's claimed name: a page whose payload does
   not hash to its name is dropped (and counted), never cached — so a
   corrupted reply can never satisfy a later digest hit.  The requester
   refetches. *)
let insert_wire_run t ?claimed run =
  let actual = Page_run.checksums run in
  let claimed =
    match claimed with Some c -> c | None -> Page_run.digests run
  in
  if Array.length claimed <> Array.length actual then
    invalid_arg "Content_store.insert_wire_run: one claim per page";
  let passed = ref 0 in
  Page_run.iteri
    (fun i value ->
      if actual.(i) <> claimed.(i) then t.rejects <- t.rejects + 1
      else begin
        ignore (remember t claimed.(i) value);
        incr passed
      end)
    run;
  !passed

let insert_wire t ?claimed value =
  insert_wire_run t
    ?claimed:(Option.map (fun d -> [| d |]) claimed)
    (Page_run.singleton value)
  = 1

let find t digest =
  if t.capacity_pages = 0 then None
  else
    match Int_tbl.find_opt t.index digest with
    | Some entry ->
        t.hits <- t.hits + 1;
        entry.tick <- stamp t digest;
        Some entry.value
    | None ->
        t.misses <- t.misses + 1;
        None

(* Non-bumping, non-counting probes (tests, diagnostics, checkpoints). *)
let mem t digest = Int_tbl.mem t.index digest
let peek t d = Option.map (fun e -> e.value) (Int_tbl.find_opt t.index d)
let indexed_pages t = Int_tbl.length t.index

let verify t =
  Int_tbl.fold
    (fun digest entry ok ->
      ok && Page.checksum_value entry.value = digest)
    t.index true

(* --- the segment/offset layer ------------------------------------------- *)

let segment t segment_id =
  match Int_tbl.find_opt t.segs segment_id with
  | Some seg -> seg
  | None ->
      let seg = Interval_map.create ~equal:( == ) () in
      Int_tbl.replace t.segs segment_id seg;
      seg

(* Segment contents register their digests (and intern duplicate literal
   values into one physical copy) only when dedup is on: with it off an
   extent is adopted with no per-page work, one overlap probe and one
   splice (O(log extents) when it lands after the others, as every bank
   site's does). *)
let put_extent t ~segment_id ~offset run =
  if offset mod Page.size <> 0 then
    invalid_arg "Content_store.put_extent: unaligned offset";
  if Page_run.length run > 0 then begin
    let seg = segment t segment_id in
    let hi = offset + (Page_run.length run * Page.size) in
    if
      Interval_map.fold_range seg ~lo:offset ~hi ~init:false
        ~f:(fun _ _ _ _ -> true)
    then invalid_arg "Content_store.put_extent: overlapping extent";
    let run =
      if t.dedup && t.capacity_pages > 0 then begin
        let digests = Page_run.digests run and values = Page_run.to_array run in
        Array.iteri (fun i v -> values.(i) <- remember t digests.(i) v) values;
        Page_run.of_array values
      end
      else run
    in
    Interval_map.set seg ~lo:offset ~hi (offset, run)
  end

let put_bytes t ~segment_id ~offset data =
  let len = Bytes.length data in
  put_extent t ~segment_id ~offset
    (Page_run.init ((len + Page.size - 1) / Page.size) (fun i ->
         let page = Page.zero () and off = i * Page.size in
         Bytes.blit data off page 0 (min Page.size (len - off));
         Page.of_bytes page))

(* Slices of the extents covering [offset, offset + pages * 512), up to
   the first gap. *)
let read_run t ~segment_id ~offset ~pages =
  match Int_tbl.find_opt t.segs segment_id with
  | None -> Page_run.empty
  | Some seg ->
      let b = Page_run.builder () in
      ignore
        (Interval_map.fold_pieces seg ~lo:offset
           ~hi:(offset + (pages * Page.size))
           ~init:true
           ~f:(fun contiguous lo hi piece ->
             match piece with
             | Some (start, run) when contiguous ->
                 Page_run.builder_add b
                   (Page_run.sub run
                      ~pos:((lo - start) / Page.size)
                      ~len:((hi - lo) / Page.size));
                 true
             | _ -> false));
      Page_run.builder_run b

let has_segment t ~segment_id = Int_tbl.mem t.segs segment_id
let segment_count t = Int_tbl.length t.segs

let segment_pages t ~segment_id =
  match Int_tbl.find_opt t.segs segment_id with
  | None -> 0
  | Some seg -> Interval_map.total_length seg / Page.size

(* Dropping a segment forgets its offsets, not its digests: the host has
   still seen that content, which is exactly what lets a backing server
   answer a pull whose digest it knows regardless of which segment
   originally supplied it. *)
let drop_segment t ~segment_id = Int_tbl.remove t.segs segment_id

(* --- accounting --------------------------------------------------------- *)

let hits t = t.hits
let misses t = t.misses
let insertions t = t.insertions
let evictions t = t.evictions
let rejects t = t.rejects
let interned t = t.interned
