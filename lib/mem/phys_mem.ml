type frame_id = int

(* A frame carries its owner inline, and its dirty bit in the low bit
   of [tag] beside the stamp of its live pair in the LRU queue: one
   5-word record per resident page. *)
type frame = {
  space_id : int;
  page : Page.index;
  mutable data : Page.value;
  mutable tag : int; (* stamp lsl 1, lor 1 when dirty *)
}

let stamp_of f = f.tag asr 1
let dirty f = f.tag land 1 = 1
let restamp f stamp = f.tag <- (stamp lsl 1) lor (f.tag land 1)

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
   recycled id carries a younger stamp.  A bump allocates nothing and
   keeps the dirty bit. *)

type t = {
  capacity : int;
  mutable slots : frame array; (* dense by id; [no_frame] marks free slots *)
  mutable in_use : int;
  mutable free_list : frame_id list;
  mutable next_id : int;
  mutable evict :
    (space_id:int -> page:Page.index -> Page.value -> dirty:bool -> unit)
    option;
  mutable evictions : int;
  lru : Accent_util.Stamp_fifo.t;
}

let no_frame = { space_id = -1; page = -1; data = Page.zero_value; tag = -1 }

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
    lru = Accent_util.Stamp_fifo.create ();
  }

let set_evict_handler t f = t.evict <- Some f
let capacity t = t.capacity
let in_use t = t.in_use
let free_frames t = t.capacity - t.in_use

(* --- the LRU queue ------------------------------------------------------ *)

let frame_live t id stamp = stamp_of t.slots.(id) = stamp
let frame_restamp t id stamp = restamp t.slots.(id) stamp

(* A fresh stamp for frame [id], its pair queued at the tail. *)
let stamp t id =
  Accent_util.Stamp_fifo.push t.lru ~live:frame_live ~restamp:frame_restamp t
    ~live_count:t.in_use id

let oldest t = Accent_util.Stamp_fifo.oldest t.lru ~live:frame_live t

(* --- frames ------------------------------------------------------------ *)

let find_frame t id =
  if id < 0 || id >= t.next_id then invalid_arg "Phys_mem: unknown frame"
  else begin
    let f = t.slots.(id) in
    if f == no_frame then invalid_arg "Phys_mem: unknown frame" else f
  end

let choose_victim t =
  let id = oldest t in
  if id < 0 then None else Some id

let release_slot t id =
  t.slots.(id) <- no_frame;
  t.in_use <- t.in_use - 1;
  t.free_list <- id :: t.free_list

(* Only called on a full pool, so the head always holds a live pair. *)
let evict_one t =
  let id = oldest t in
  let f = t.slots.(id) in
  (match t.evict with
  | Some handler ->
      handler ~space_id:f.space_id ~page:f.page f.data ~dirty:(dirty f)
  | None -> failwith "Phys_mem: pool full and no evict handler set");
  t.evictions <- t.evictions + 1;
  Accent_util.Stamp_fifo.pop t.lru;
  release_slot t id

let allocate t ~space_id ~page data =
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
  let tag = stamp t id lsl 1 in
  t.slots.(id) <- { space_id; page; data; tag };
  t.in_use <- t.in_use + 1;
  id

let free t id =
  ignore (find_frame t id);
  release_slot t id

let touch t id =
  let f = find_frame t id in
  restamp f (stamp t id)

let read t id =
  let f = find_frame t id in
  restamp f (stamp t id);
  f.data

let peek t id = (find_frame t id).data

let write t id data =
  let f = find_frame t id in
  f.data <- data;
  f.tag <- (stamp t id lsl 1) lor 1

let is_dirty t id = dirty (find_frame t id)

let evictions t = t.evictions
