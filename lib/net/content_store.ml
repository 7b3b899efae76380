open Accent_mem
open Accent_ipc

(* One per host, owned by its NetMsgServer.  Two layers share it:

   - the segment/offset layer is the old NMS Data-chunk cache and the
     MigrationManager's backing store, unchanged in behaviour (extents
     adopted in O(1), overlay pages shadowing them);

   - the digest layer names every page value the host has seen, across
     all segments and all migrations, and is what the digest-first
     handshake consults.  It is an opportunistic cache: LRU-bounded,
     and losing an entry can never lose data, because segment contents
     hold their values directly.

   With [dedup] off the digest layer is never touched, so the store is
   observationally identical to the plain Segment_store it replaced. *)

type entry = {
  value : Page.value;
  mutable handle : Accent_util.Lazy_heap.handle;
}

type t = {
  dedup : bool;
  capacity_pages : int;
  store : Segment_store.t;
  index : (int, entry) Hashtbl.t; (* digest -> value *)
  lru : (int * int) Accent_util.Lazy_heap.t; (* (last-use tick, digest) *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable rejects : int;
  mutable interned : int;
}

(* Ticks are unique, so the order is strict and the heap pops
   deterministically. *)
let lru_earlier (ta, da) (tb, db) = ta < tb || (ta = tb && da < db)

let create ?(dedup = false) ?(capacity_pages = 4096) () =
  {
    dedup;
    capacity_pages = max 0 capacity_pages;
    store = Segment_store.create ();
    index = Hashtbl.create 1024;
    lru = Accent_util.Lazy_heap.create ~earlier:lru_earlier ();
    clock = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    rejects = 0;
    interned = 0;
  }

let dedup_enabled t = t.dedup
let capacity_pages t = t.capacity_pages

(* --- the digest layer --------------------------------------------------- *)

let touch t digest entry =
  Accent_util.Lazy_heap.cancel t.lru entry.handle;
  t.clock <- t.clock + 1;
  entry.handle <- Accent_util.Lazy_heap.push t.lru (t.clock, digest)

let rec evict_to_capacity t =
  if Hashtbl.length t.index > t.capacity_pages then begin
    (match Accent_util.Lazy_heap.pop t.lru with
    | None -> assert false (* every index entry holds a live heap element *)
    | Some (_, digest) ->
        Hashtbl.remove t.index digest;
        t.evictions <- t.evictions + 1);
    evict_to_capacity t
  end

(* Remember [value] under [digest], returning the stored (possibly
   pre-existing, physically shared) copy. *)
let remember t digest value =
  if t.capacity_pages = 0 then value
  else
    match Hashtbl.find_opt t.index digest with
    | Some entry ->
        t.interned <- t.interned + 1;
        touch t digest entry;
        entry.value
    | None ->
        t.clock <- t.clock + 1;
        let handle = Accent_util.Lazy_heap.push t.lru (t.clock, digest) in
        Hashtbl.replace t.index digest { value; handle };
        t.insertions <- t.insertions + 1;
        evict_to_capacity t;
        value

let insert t value = ignore (remember t (Page.digest value) value)

(* Every insert coming off the wire re-derives the digest from the bytes
   themselves: a Data reply whose payload does not hash to its claimed
   name is dropped (and counted), never cached — so a corrupted reply can
   never satisfy a later digest hit.  The requester simply refetches. *)
let insert_wire t ?claimed value =
  let claimed = match claimed with Some d -> d | None -> Page.digest value in
  if Page.checksum (Page.to_bytes value) <> claimed then begin
    t.rejects <- t.rejects + 1;
    false
  end
  else begin
    ignore (remember t claimed value);
    true
  end

let find t digest =
  if t.capacity_pages = 0 then None
  else
    match Hashtbl.find_opt t.index digest with
    | Some entry ->
        t.hits <- t.hits + 1;
        touch t digest entry;
        Some entry.value
    | None ->
        t.misses <- t.misses + 1;
        None

(* Non-bumping, non-counting membership probe (tests and diagnostics). *)
let mem t digest = Hashtbl.mem t.index digest
let indexed_pages t = Hashtbl.length t.index

let verify t =
  Hashtbl.fold
    (fun digest entry ok ->
      ok && Page.checksum (Page.to_bytes entry.value) = digest)
    t.index true

(* --- the segment/offset layer ------------------------------------------- *)

(* Segment contents register their digests (and intern duplicate literal
   values into one physical copy) only when dedup is on: with it off this
   is byte-for-byte the old Segment_store hot path, including O(1) extent
   adoption. *)
let register t value =
  if t.capacity_pages = 0 then value
  else remember t (Page.digest value) value

let put_page t ~segment_id ~offset value =
  let value = if t.dedup then register t value else value in
  Segment_store.put_page t.store ~segment_id ~offset value

let put_extent t ~segment_id ~offset run =
  let run =
    if t.dedup then Page_run.of_array (Page_run.map_to_array (register t) run)
    else run
  in
  Segment_store.put_extent t.store ~segment_id ~offset run

let put_bytes t ~segment_id ~offset data =
  Segment_store.put_bytes t.store ~segment_id ~offset data;
  if t.dedup then begin
    let pages = (Bytes.length data + Page.size - 1) / Page.size in
    for i = 0 to pages - 1 do
      match
        Segment_store.get_page t.store ~segment_id
          ~offset:(offset + (i * Page.size))
      with
      | Some value -> ignore (register t value)
      | None -> ()
    done
  end

let get_page t ~segment_id ~offset =
  Segment_store.get_page t.store ~segment_id ~offset

let read_run t ~segment_id ~offset ~pages =
  Segment_store.read_run t.store ~segment_id ~offset ~pages

let has_segment t ~segment_id = Segment_store.has_segment t.store ~segment_id

let segment_pages t ~segment_id =
  Segment_store.segment_pages t.store ~segment_id

let segment_bytes t ~segment_id =
  Segment_store.segment_bytes t.store ~segment_id

(* Dropping a segment forgets its offsets, not its digests: the host has
   still seen that content, which is exactly what lets a backing server
   answer a pull whose digest it knows regardless of which segment
   originally supplied it. *)
let drop_segment t ~segment_id = Segment_store.drop_segment t.store ~segment_id
let segments t = Segment_store.segments t.store
let total_bytes t = Segment_store.total_bytes t.store

(* --- accounting --------------------------------------------------------- *)

let hits t = t.hits
let misses t = t.misses
let insertions t = t.insertions
let evictions t = t.evictions
let rejects t = t.rejects
let interned t = t.interned
