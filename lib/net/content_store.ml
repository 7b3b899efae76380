open Accent_mem
module Int_tbl = Accent_util.Int_tbl

(* One per host, owned by its NetMsgServer.  Two layers share it:

   - the segment/offset layer is the NMS Data-chunk cache and the
     MigrationManager's backing store: each segment is an overlay of
     individually-written pages over a small list of bulk extents, adopted
     in O(1) (the NetMsgServer caches every outbound Data chunk this way,
     so a per-page path would put an O(space) insert loop on every
     migration send);

   - the digest layer names every page value the host has seen, across
     all segments and all migrations, and is what the digest-first
     handshake consults.  It is an opportunistic cache: LRU-bounded,
     and losing an entry can never lose data, because segment contents
     hold their values directly.

   With [dedup] off the digest layer is never touched. *)

type seg = {
  pages : Page.value Int_tbl.t; (* offset -> single; consulted first *)
  mutable extents : (int * Page_run.t) list; (* (byte offset, run) *)
}

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

(* Non-bumping, non-counting membership probe (tests and diagnostics). *)
let mem t digest = Int_tbl.mem t.index digest
let indexed_pages t = Int_tbl.length t.index

let verify t =
  Int_tbl.fold
    (fun digest entry ok ->
      ok && Page.checksum_value entry.value = digest)
    t.index true

(* --- the segment/offset layer ------------------------------------------- *)

(* Segment contents register their digests (and intern duplicate literal
   values into one physical copy) only when dedup is on: with it off the
   hot path is the plain segment table, including O(1) extent
   adoption. *)
let register t value =
  if t.capacity_pages = 0 then value
  else remember t (Page.digest value) value

let segment t segment_id =
  match Int_tbl.find_opt t.segs segment_id with
  | Some seg -> seg
  | None ->
      let seg = { pages = Int_tbl.create 256; extents = [] } in
      Int_tbl.replace t.segs segment_id seg;
      seg

let check_aligned fn offset =
  if offset mod Page.size <> 0 then
    invalid_arg (Printf.sprintf "Content_store.%s: unaligned offset" fn)

let put_page t ~segment_id ~offset value =
  check_aligned "put_page" offset;
  let value = if t.dedup then register t value else value in
  Int_tbl.replace (segment t segment_id).pages offset value

let extent_bytes run = Page_run.length run * Page.size

let put_extent t ~segment_id ~offset run =
  check_aligned "put_extent" offset;
  if Page_run.length run > 0 then begin
    let seg = segment t segment_id in
    let hi = offset + extent_bytes run in
    List.iter
      (fun (lo, vs) ->
        if offset < lo + extent_bytes vs && lo < hi then
          invalid_arg "Content_store.put_extent: overlapping extent")
      seg.extents;
    let run =
      if t.dedup && t.capacity_pages > 0 then begin
        let digests = Page_run.digests run and values = Page_run.to_array run in
        Array.iteri (fun i v -> values.(i) <- remember t digests.(i) v) values;
        Page_run.of_array values
      end
      else run
    in
    seg.extents <- (offset, run) :: seg.extents
  end

let put_bytes t ~segment_id ~offset data =
  check_aligned "put_bytes" offset;
  let len = Bytes.length data in
  let seg = segment t segment_id in
  for i = 0 to ((len + Page.size - 1) / Page.size) - 1 do
    let page = Page.zero () in
    let off = i * Page.size in
    Bytes.blit data off page 0 (min Page.size (len - off));
    let value = Page.of_bytes page in
    Int_tbl.replace seg.pages (offset + off) value;
    if t.dedup then ignore (register t value)
  done

let extent_find seg offset =
  List.find_map
    (fun (lo, vs) ->
      if lo <= offset && offset < lo + extent_bytes vs then
        Some (Page_run.get vs ((offset - lo) / Page.size))
      else None)
    seg.extents

let get_page t ~segment_id ~offset =
  match Int_tbl.find_opt t.segs segment_id with
  | None -> None
  | Some seg -> (
      match Int_tbl.find_opt seg.pages offset with
      | Some _ as v -> v
      | None -> extent_find seg offset)

let read_run t ~segment_id ~offset ~pages =
  assert (pages >= 1);
  let rec loop i acc =
    if i >= pages then List.rev acc
    else
      match get_page t ~segment_id ~offset:(offset + (i * Page.size)) with
      | None -> List.rev acc
      | Some value -> loop (i + 1) (value :: acc)
  in
  loop 0 []

let has_segment t ~segment_id = Int_tbl.mem t.segs segment_id

(* Overlay pages that shadow an extent slot must not be double-counted. *)
let segment_pages t ~segment_id =
  match Int_tbl.find_opt t.segs segment_id with
  | None -> 0
  | Some seg ->
      Int_tbl.fold
        (fun offset _ acc ->
          if extent_find seg offset = None then acc + 1 else acc)
        seg.pages
        (List.fold_left
           (fun acc (_, vs) -> acc + Page_run.length vs)
           0 seg.extents)

let segment_bytes t ~segment_id = segment_pages t ~segment_id * Page.size

(* Dropping a segment forgets its offsets, not its digests: the host has
   still seen that content, which is exactly what lets a backing server
   answer a pull whose digest it knows regardless of which segment
   originally supplied it. *)
let drop_segment t ~segment_id = Int_tbl.remove t.segs segment_id

let total_bytes t =
  Int_tbl.fold (fun id _ acc -> acc + segment_bytes t ~segment_id:id) t.segs 0

(* --- accounting --------------------------------------------------------- *)

let hits t = t.hits
let misses t = t.misses
let insertions t = t.insertions
let evictions t = t.evictions
let rejects t = t.rejects
let interned t = t.interned
