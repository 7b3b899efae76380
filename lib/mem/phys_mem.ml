type frame_id = int
type owner = { space_id : int; page : Page.index }

type frame = {
  mutable owner : owner;
  mutable data : Page.value;
  mutable dirty : bool;
  mutable pinned : bool;
  mutable last_use : int; (* LRU clock stamp *)
}

(* Frames live in a dense array indexed by id (ids are recycled through
   the free list, so the array never outgrows the pool's high-water
   mark).  Freed slots point at [no_frame], a shared sentinel, so the
   hot-path lookup is one bounds-checked load — the Hashtbl this
   replaces cost a hash, a bucket walk and an option box per touch.

   The LRU is a lazy-invalidation min-heap of plain ints: each entry
   packs (stamp, frame id) into one immediate word.  There are no
   cancellation handles; an entry is live iff the frame it names still
   holds the stamp it was pushed with (stamps are unique, the clock
   ticks on every bump) and is not pinned.  A recency bump therefore
   allocates nothing: it writes the new stamp into the frame and pushes
   one int.  Stale entries are skipped at pop and squeezed out when
   they outnumber the live ones, exactly the event queue's compaction
   rule, and the strict total order on stamps keeps the victim sequence
   identical to the handle-based heap this replaces. *)

type t = {
  capacity : int;
  mutable slots : frame array; (* dense by id; [no_frame] marks free slots *)
  mutable in_use : int;
  mutable free_list : frame_id list;
  mutable next_id : int;
  mutable clock : int;
  mutable evict : (owner -> Page.value -> dirty:bool -> unit) option;
  mutable evictions : int;
  (* space_id -> page -> frame, for O(1) resident-set queries *)
  by_space : (int, (Page.index, frame_id) Hashtbl.t) Hashtbl.t;
  mutable lru : int array; (* packed (stamp, id); slots >= lru_len stale *)
  mutable lru_len : int;
  mutable lru_live : int; (* unpinned live frames = live heap entries *)
}

(* Frame ids fit 20 bits (pools are bounded in [create]); stamps are
   unique, so the packed key preserves stamp order with the frame id as
   a vestigial tie-break. *)
let id_bits = 20
let lru_key stamp id = (stamp lsl id_bits) lor id
let lru_id key = key land ((1 lsl id_bits) - 1)
let lru_stamp key = key lsr id_bits

let no_owner = { space_id = -1; page = -1 }

let no_frame =
  {
    owner = no_owner;
    data = Page.zero_value;
    dirty = false;
    pinned = false;
    last_use = -1;
  }

let create ~frames =
  assert (frames > 0 && frames < 1 lsl id_bits);
  {
    capacity = frames;
    slots = [||];
    in_use = 0;
    free_list = [];
    next_id = 0;
    clock = 0;
    evict = None;
    evictions = 0;
    by_space = Hashtbl.create 16;
    lru = [||];
    lru_len = 0;
    lru_live = 0;
  }

let set_evict_handler t f = t.evict <- Some f
let capacity t = t.capacity
let in_use t = t.in_use
let free_frames t = t.capacity - t.in_use

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* --- the stamp-validated LRU heap -------------------------------------- *)

(* Live iff the named frame still carries this stamp and is evictable.
   A freed slot holds [no_frame] (stamp -1), a recycled id carries a
   younger stamp, a pinned frame sits out until unpinned. *)
let entry_live t key =
  let f = t.slots.(lru_id key) in
  f.last_use = lru_stamp key && not f.pinned

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.lru.(i) < t.lru.(parent) then begin
      let tmp = t.lru.(i) in
      t.lru.(i) <- t.lru.(parent);
      t.lru.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.lru_len && t.lru.(l) < t.lru.(!smallest) then smallest := l;
  if r < t.lru_len && t.lru.(r) < t.lru.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.lru.(i) in
    t.lru.(i) <- t.lru.(!smallest);
    t.lru.(!smallest) <- tmp;
    sift_down t !smallest
  end

let heap_compact t =
  let kept = ref 0 in
  for i = 0 to t.lru_len - 1 do
    let key = t.lru.(i) in
    if entry_live t key then begin
      t.lru.(!kept) <- key;
      incr kept
    end
  done;
  t.lru_len <- !kept;
  for i = (t.lru_len / 2) - 1 downto 0 do
    sift_down t i
  done

let heap_push t key =
  (if t.lru_len = Array.length t.lru then begin
     let cap' = max 16 (2 * t.lru_len) in
     let lru = Array.make cap' 0 in
     Array.blit t.lru 0 lru 0 t.lru_len;
     t.lru <- lru
   end);
  t.lru.(t.lru_len) <- key;
  t.lru_len <- t.lru_len + 1;
  sift_up t (t.lru_len - 1)

let heap_drop_root t =
  t.lru_len <- t.lru_len - 1;
  if t.lru_len > 0 then begin
    t.lru.(0) <- t.lru.(t.lru_len);
    sift_down t 0
  end

(* Drop stale roots until the top is live; -1 when nothing evictable. *)
let rec heap_top t =
  if t.lru_len = 0 then -1
  else begin
    let key = t.lru.(0) in
    if entry_live t key then key
    else begin
      heap_drop_root t;
      heap_top t
    end
  end

let maybe_compact t =
  if t.lru_len >= 64 && t.lru_len - t.lru_live > t.lru_live then heap_compact t

let bump t id f =
  f.last_use <- tick t;
  if not f.pinned then begin
    heap_push t (lru_key f.last_use id);
    maybe_compact t
  end

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
  let key = heap_top t in
  if key < 0 then None else Some (lru_id key)

let release_slot t id f =
  if not f.pinned then t.lru_live <- t.lru_live - 1;
  unindex_owner t f.owner;
  t.slots.(id) <- no_frame;
  t.in_use <- t.in_use - 1;
  t.free_list <- id :: t.free_list

let evict_one t =
  let key = heap_top t in
  if key < 0 then failwith "Phys_mem: all frames pinned, cannot evict"
  else begin
    let id = lru_id key in
    let f = t.slots.(id) in
    (match t.evict with
    | Some handler -> handler f.owner f.data ~dirty:f.dirty
    | None -> failwith "Phys_mem: pool full and no evict handler set");
    t.evictions <- t.evictions + 1;
    heap_drop_root t;
    release_slot t id f
  end

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
  let f = { owner; data; dirty = false; pinned = false; last_use = tick t } in
  t.slots.(id) <- f;
  t.in_use <- t.in_use + 1;
  t.lru_live <- t.lru_live + 1;
  heap_push t (lru_key f.last_use id);
  maybe_compact t;
  index_owner t owner id;
  id

let free t id =
  let f = find_frame t id in
  release_slot t id f;
  maybe_compact t

let read t id =
  let f = find_frame t id in
  bump t id f;
  f.data

let peek t id = (find_frame t id).data

let write t id data =
  let f = find_frame t id in
  f.data <- data;
  f.dirty <- true;
  bump t id f

let touch t id =
  let f = find_frame t id in
  bump t id f

let pin t id =
  let f = find_frame t id in
  if not f.pinned then begin
    f.pinned <- true;
    t.lru_live <- t.lru_live - 1
  end

let unpin t id =
  let f = find_frame t id in
  if f.pinned then begin
    f.pinned <- false;
    t.lru_live <- t.lru_live + 1;
    (* re-enter at the original stamp: unpinning must not look like a
       reference, or pinning would distort eviction order *)
    heap_push t (lru_key f.last_use id);
    maybe_compact t
  end

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
