(* A lazy-invalidation binary min-heap over (time, seq), specialized for
   the simulator's hot loop: entries live in parallel arrays — the time
   keys in a flat float array — so a push allocates nothing but the
   2-word cancellation handle, and every heap comparison reads unboxed
   floats.  A generic heap of records would box each Time.t field: three
   allocations (item, boxed float, heap entry) per scheduled event, and
   a pointer chase per comparison.

   Ties on time break by insertion sequence, a strict total order, so
   the pop sequence is a pure function of the live set and compaction
   can never reorder events. *)

type handle = { mutable dead : bool }

type 'a t = {
  mutable times : float array; (* unboxed keys; slots >= len are stale *)
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable slots : handle array;
  mutable len : int;
  mutable live : int;
  mutable next_seq : int;
  mutable compactions : int;
  last_time : float array; (* singleton: time of the last popped event *)
}

let min_compact = 64

let create () =
  {
    times = [||];
    seqs = [||];
    payloads = [||];
    slots = [||];
    len = 0;
    live = 0;
    next_seq = 0;
    compactions = 0;
    last_time = [| 0. |];
  }

let is_empty t = t.live = 0
let size t = t.live
let physical_size t = t.len
let compactions t = t.compactions

(* (time, seq) is a strict total order — seq is unique — so pop order is
   exactly the scheduling order at equal times. *)
let earlier t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.payloads.(dst) <- t.payloads.(src);
  t.slots.(dst) <- t.slots.(src)

(* Both sifts carry a hole: the entry at [i] is lifted into locals,
   each level moves one entry across the hole (one write per array),
   and the lifted entry is written once where it lands.  The
   comparisons are a swapping sift's, so the layout — and with it the
   pop order — does not depend on which of the two is used.  The loops
   are written out flat — no local closure, no float argument — so a
   sift allocates nothing. *)
let sift_up t i =
  let time = t.times.(i) and seq = t.seqs.(i) in
  let payload = t.payloads.(i) and slot = t.slots.(i) in
  let hole = ref i and rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pt = t.times.(parent) in
    if time < pt || (time = pt && seq < t.seqs.(parent)) then begin
      move t ~src:parent ~dst:!hole;
      hole := parent
    end
    else rising := false
  done;
  let h = !hole in
  t.times.(h) <- time;
  t.seqs.(h) <- seq;
  t.payloads.(h) <- payload;
  t.slots.(h) <- slot

let sift_down t i =
  let time = t.times.(i) and seq = t.seqs.(i) in
  let payload = t.payloads.(i) and slot = t.slots.(i) in
  let hole = ref i and sinking = ref true in
  while !sinking && (2 * !hole) + 1 < t.len do
    let l = (2 * !hole) + 1 in
    let c = if l + 1 < t.len && earlier t (l + 1) l then l + 1 else l in
    let ct = t.times.(c) in
    if ct < time || (ct = time && t.seqs.(c) < seq) then begin
      move t ~src:c ~dst:!hole;
      hole := c
    end
    else sinking := false
  done;
  let h = !hole in
  t.times.(h) <- time;
  t.seqs.(h) <- seq;
  t.payloads.(h) <- payload;
  t.slots.(h) <- slot

let grow t payload slot =
  let cap = Array.length t.times in
  if t.len = cap then begin
    let cap' = max 16 (cap * 2) in
    let times = Array.make cap' 0. in
    Array.blit t.times 0 times 0 t.len;
    t.times <- times;
    let seqs = Array.make cap' 0 in
    Array.blit t.seqs 0 seqs 0 t.len;
    t.seqs <- seqs;
    let payloads = Array.make cap' payload in
    Array.blit t.payloads 0 payloads 0 t.len;
    t.payloads <- payloads;
    let slots = Array.make cap' slot in
    Array.blit t.slots 0 slots 0 t.len;
    t.slots <- slots
  end

let push_slot t ~time payload slot =
  grow t payload slot;
  let i = t.len in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.payloads.(i) <- payload;
  t.slots.(i) <- slot;
  t.len <- t.len + 1;
  t.live <- t.live + 1;
  sift_up t i

let push t ~time payload =
  let slot = { dead = false } in
  push_slot t ~time payload slot;
  slot

(* Entries that will never be cancelled share this one immortal slot —
   the common fire-and-forget schedule allocates nothing at all.  Pop
   must not mark it dead, and [cancel] can never see it (no handle is
   returned), so its [dead] flag stays false forever. *)
let null_slot = { dead = false }
let push_unit t ~time payload = push_slot t ~time payload null_slot

(* Filter the dead entries out and heapify what is left.  Because the
   order is strictly total, the rebuilt heap pops in exactly the
   sequence the un-compacted heap would have. *)
let compact t =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    if not t.slots.(i).dead then begin
      if !kept < i then begin
        t.times.(!kept) <- t.times.(i);
        t.seqs.(!kept) <- t.seqs.(i);
        t.payloads.(!kept) <- t.payloads.(i);
        t.slots.(!kept) <- t.slots.(i)
      end;
      incr kept
    end
  done;
  (* drop references beyond the live prefix so payloads can be GC'd *)
  (if !kept > 0 then
     let filler = t.payloads.(0) and slot_filler = t.slots.(0) in
     for i = !kept to t.len - 1 do
       t.payloads.(i) <- filler;
       t.slots.(i) <- slot_filler
     done);
  t.len <- !kept;
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i
  done;
  t.compactions <- t.compactions + 1

let maybe_compact t =
  if t.len >= min_compact && t.len - t.live > t.live then compact t

let cancel t handle =
  if not handle.dead then begin
    handle.dead <- true;
    t.live <- t.live - 1;
    maybe_compact t
  end

(* remove the root (dead or not); true when an entry was removed *)
let drop_root t =
  if t.len = 0 then false
  else begin
    t.last_time.(0) <- t.times.(0);
    t.len <- t.len - 1;
    if t.len > 0 then begin
      move t ~src:t.len ~dst:0;
      sift_down t 0
    end;
    true
  end

(* The engine's hot pop: payload only, no option cell at all — the
   caller checks {!is_empty} first; read the matching time with
   [last_time] afterwards. *)
let rec pop_payload_exn t =
  if t.len = 0 then invalid_arg "Event_queue.pop_payload_exn: empty"
  else begin
    let slot = t.slots.(0) and payload = t.payloads.(0) in
    ignore (drop_root t);
    if slot.dead then pop_payload_exn t
    else begin
      (* a popped entry leaves the heap for good: mark it so a later
         [cancel] through a retained handle stays a no-op (the shared
         null slot of handle-less entries must stay live forever) *)
      if slot != null_slot then slot.dead <- true;
      t.live <- t.live - 1;
      payload
    end
  end

let last_time t = t.last_time.(0)

let pop t =
  if t.live = 0 then None
  else
    let payload = pop_payload_exn t in
    Some (t.last_time.(0), payload)

let rec skip_dead_roots t =
  if t.len > 0 && t.slots.(0).dead then begin
    ignore (drop_root t);
    skip_dead_roots t
  end

(* Unboxed peek for the engine's run-limit check; only meaningful when
   the queue is non-empty. *)
let next_time t =
  skip_dead_roots t;
  if t.len = 0 then infinity else t.times.(0)

let peek_time t =
  skip_dead_roots t;
  if t.len = 0 then None else Some t.times.(0)
