type frame_id = int
type owner = { space_id : int; page : Page.index }

type frame = {
  mutable owner : owner;
  mutable data : Page.value;
  mutable dirty : bool;
  mutable last_use : int; (* stamp of its live pair in the LRU queue *)
}

(* Frames live in a dense array indexed by id (ids are recycled through
   the free list, so the array never outgrows the pool's high-water
   mark).  Freed slots point at [no_frame], a shared sentinel, so the
   hot-path lookup is one bounds-checked load — the Hashtbl this
   replaces cost a hash, a bucket walk and an option box per touch.

   The LRU is an [Accent_util.Stamp_fifo] of frame ids: every recency
   bump pushes the id with the queue's next stamp and writes that stamp
   into the frame, so push order is LRU order and the victim is the
   oldest live pair at the head.  A pair is live iff its frame still
   carries its stamp; a freed slot holds [no_frame] (stamp -1) and a
   recycled id carries a younger stamp.  A bump allocates nothing. *)

type t = {
  capacity : int;
  mutable slots : frame array; (* dense by id; [no_frame] marks free slots *)
  mutable in_use : int;
  mutable free_list : frame_id list;
  mutable next_id : int;
  mutable evict : (owner -> Page.value -> dirty:bool -> unit) option;
  mutable evictions : int;
  (* space_id -> page -> frame, for O(1) resident-set queries *)
  by_space : (int, (Page.index, frame_id) Hashtbl.t) Hashtbl.t;
  lru : Accent_util.Stamp_fifo.t;
}

let no_owner = { space_id = -1; page = -1 }

let no_frame =
  { owner = no_owner; data = Page.zero_value; dirty = false; last_use = -1 }

let create ~frames =
  assert (frames > 0);
  {
    capacity = frames;
    slots = [||];
    in_use = 0;
    free_list = [];
    next_id = 0;
    evict = None;
    evictions = 0;
    by_space = Hashtbl.create 16;
    lru = Accent_util.Stamp_fifo.create ();
  }

let set_evict_handler t f = t.evict <- Some f
let capacity t = t.capacity
let in_use t = t.in_use
let free_frames t = t.capacity - t.in_use

(* --- the LRU queue ------------------------------------------------------ *)

let frame_live t id stamp = t.slots.(id).last_use = stamp
let frame_restamp t id stamp = t.slots.(id).last_use <- stamp

(* A fresh stamp for frame [id], its pair queued at the tail. *)
let stamp t id =
  Accent_util.Stamp_fifo.push t.lru ~live:frame_live ~restamp:frame_restamp t
    ~live_count:t.in_use id

let oldest t = Accent_util.Stamp_fifo.oldest t.lru ~live:frame_live t

(* --- frames ------------------------------------------------------------ *)

let index_owner t owner id =
  let tbl =
    match Hashtbl.find_opt t.by_space owner.space_id with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 16 in
        Hashtbl.replace t.by_space owner.space_id tbl;
        tbl
  in
  Hashtbl.replace tbl owner.page id

let unindex_owner t owner =
  match Hashtbl.find_opt t.by_space owner.space_id with
  | None -> ()
  | Some tbl ->
      Hashtbl.remove tbl owner.page;
      if Hashtbl.length tbl = 0 then Hashtbl.remove t.by_space owner.space_id

let find_frame t id =
  if id < 0 || id >= t.next_id then invalid_arg "Phys_mem: unknown frame"
  else begin
    let f = t.slots.(id) in
    if f == no_frame then invalid_arg "Phys_mem: unknown frame" else f
  end

let choose_victim t =
  let id = oldest t in
  if id < 0 then None else Some id

let release_slot t id f =
  unindex_owner t f.owner;
  t.slots.(id) <- no_frame;
  t.in_use <- t.in_use - 1;
  t.free_list <- id :: t.free_list

(* Only called on a full pool, so the head always holds a live pair. *)
let evict_one t =
  let id = oldest t in
  let f = t.slots.(id) in
  (match t.evict with
  | Some handler -> handler f.owner f.data ~dirty:f.dirty
  | None -> failwith "Phys_mem: pool full and no evict handler set");
  t.evictions <- t.evictions + 1;
  Accent_util.Stamp_fifo.pop t.lru;
  release_slot t id f

let allocate t ~owner data =
  if t.in_use >= t.capacity then evict_one t;
  let id =
    match t.free_list with
    | id :: rest ->
        t.free_list <- rest;
        id
    | [] ->
        let id = t.next_id in
        t.next_id <- id + 1;
        (if id = Array.length t.slots then begin
           let cap' = max 16 (2 * id) in
           let slots = Array.make cap' no_frame in
           Array.blit t.slots 0 slots 0 id;
           t.slots <- slots
         end);
        id
  in
  (* stamped while the slot still holds [no_frame]: a compaction inside
     [stamp] must see the id's pairs from an earlier frame as stale *)
  let last_use = stamp t id in
  t.slots.(id) <- { owner; data; dirty = false; last_use };
  t.in_use <- t.in_use + 1;
  index_owner t owner id;
  id

let free t id = release_slot t id (find_frame t id)

let touch t id =
  let f = find_frame t id in
  f.last_use <- stamp t id

let read t id =
  let f = find_frame t id in
  f.last_use <- stamp t id;
  f.data

let peek t id = (find_frame t id).data

let write t id data =
  let f = find_frame t id in
  f.data <- data;
  f.dirty <- true;
  f.last_use <- stamp t id

let is_dirty t id = (find_frame t id).dirty

let frames_of_space t space_id =
  match Hashtbl.find_opt t.by_space space_id with
  | None -> []
  | Some tbl ->
      (* array sort: a resident set is ~10^3 entries and this runs on
         every excision, where a list merge sort's O(n log n) cons cells
         dominate the capture's allocation *)
      let a = Array.make (Hashtbl.length tbl) (0, 0) in
      let i = ref 0 in
      Hashtbl.iter
        (fun page id ->
          a.(!i) <- (page, id);
          incr i)
        tbl;
      Array.sort
        (fun ((pa : int), (ia : int)) (pb, ib) ->
          if pa < pb then -1
          else if pa > pb then 1
          else if ia < ib then -1
          else if ia > ib then 1
          else 0)
        a;
      Array.to_list a

let resident_count t space_id =
  match Hashtbl.find_opt t.by_space space_id with
  | None -> 0
  | Some tbl -> Hashtbl.length tbl

let evictions t = t.evictions
