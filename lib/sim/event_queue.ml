(* A lazy-invalidation binary min-heap over (time, seq).  The heap is
   three parallel arrays of immediates — unboxed times, sequence numbers
   and slot indices — so a sift moves no pointer and runs no write
   barrier.  Payloads sit in a slot store beside it, written once at
   push and cleared once at pop or cancel; as in [Interval_map] the
   store holds [Obj.t]s made from an immediate, so it is never a flat
   float array and a cleared slot references nothing.  [owners.(s)] is
   the handle of slot [s]'s live event, or -1 once it was cancelled
   (its dead heap entry keeps the slot until it leaves the heap) or the
   slot is free.  Free slots are the stack [free.(0 .. nfree - 1)], and
   [len + nfree] is the capacity of every array.

   A handle packs the slot (the low [slot_bits] bits) with the low bits
   of the sequence number, so once a popped event's slot is reused its
   old handle no longer matches and cancels nothing.  Ties on time break
   by sequence, a strict total order, so the pop sequence is a pure
   function of the live set and compaction never reorders events. *)

type handle = int

let no_handle = -1

type 'a t = {
  mutable times : float array; (* heap: unboxed keys; >= len is stale *)
  mutable seqs : int array; (* heap: insertion sequence *)
  mutable slots : int array; (* heap: the entry's slot in the store *)
  mutable payloads : Obj.t array; (* store, by slot *)
  mutable owners : int array; (* store: live handle per slot, or -1 *)
  mutable free : int array;
  mutable nfree : int;
  mutable len : int;
  mutable live : int;
  mutable next_seq : int;
  mutable compactions : int;
  clock : float array; (* singleton, shared with the engine *)
}

let min_compact = 64
let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let empty = Obj.repr 0

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    payloads = [||];
    owners = [||];
    free = [||];
    nfree = 0;
    len = 0;
    live = 0;
    next_seq = 0;
    compactions = 0;
    clock = [| 0. |];
  }

let is_empty t = t.live = 0
let size t = t.live
let physical_size t = t.len
let compactions t = t.compactions
let clock t = t.clock
let[@inline] live_at t i = t.owners.(t.slots.(i)) >= 0

let[@inline] earlier t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.slots.(dst) <- t.slots.(src)

(* Both sifts carry a hole: the entry at [i] is lifted into locals,
   each level moves one entry across the hole (one write per array),
   and the lifted entry is written once where it lands.  The
   comparisons are a swapping sift's, so the layout — and with it the
   pop order — does not depend on which of the two is used.  The loops
   are written out flat — no local closure, no float argument, and
   [move] and [earlier] inlined — so a sift allocates and calls
   nothing. *)
let sift_up t i =
  let time = t.times.(i) and seq = t.seqs.(i) and slot = t.slots.(i) in
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
  t.slots.(h) <- slot

let sift_down t i =
  let time = t.times.(i) and seq = t.seqs.(i) and slot = t.slots.(i) in
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
  t.slots.(h) <- slot

(* Called only when every slot is taken ([len] = capacity, [nfree] =
   0): the new slots go on the free stack. *)
let grow t =
  let cap = Array.length t.times in
  let cap' = max 16 (cap * 2) in
  if cap' > slot_mask + 1 then invalid_arg "Event_queue: too many events";
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.payloads <- extend t.payloads empty;
  t.owners <- extend t.owners (-1);
  t.free <- Array.init cap' (fun k -> cap' - 1 - k);
  t.nfree <- cap' - cap

(* Take a slot for [payload] and append its heap entry at [len - 1],
   its time not yet written: the caller writes it, then sifts up. *)
let append t payload =
  if t.len = Array.length t.times then grow t;
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) and seq = t.next_seq in
  let handle = (seq lsl slot_bits land max_int) lor slot in
  t.next_seq <- seq + 1;
  t.payloads.(slot) <- Obj.repr payload;
  t.owners.(slot) <- handle;
  let i = t.len in
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot;
  t.len <- i + 1;
  t.live <- t.live + 1;
  handle

let push t ~time payload =
  let handle = append t payload in
  t.times.(t.len - 1) <- time;
  sift_up t (t.len - 1);
  handle

(* The float arithmetic stays inside this module, so the engine's
   schedule passes its delay through and boxes nothing, and
   [push_after_at] reads its delay from the caller's cell. *)
let[@inline] push_delayed t delay payload =
  let handle = append t payload in
  t.times.(t.len - 1) <- t.clock.(0) +. (if delay < 0. then 0. else delay);
  sift_up t (t.len - 1);
  handle

let push_after t ~delay payload = push_delayed t delay payload
let push_unit t ~time payload = ignore (push t ~time payload)

let push_after_at t cell i payload =
  ignore (push_delayed t cell.(i) payload)

(* Filter the dead entries out, freeing their slots, and heapify what is
   left.  Because the order is strictly total, the rebuilt heap pops in
   exactly the sequence the un-compacted heap would have. *)
let compact t =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    if live_at t i then begin
      if !kept < i then move t ~src:i ~dst:!kept;
      incr kept
    end
    else begin
      t.free.(t.nfree) <- t.slots.(i);
      t.nfree <- t.nfree + 1
    end
  done;
  t.len <- !kept;
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i
  done;
  t.compactions <- t.compactions + 1

let maybe_compact t =
  if t.len >= min_compact && t.len - t.live > t.live then compact t

(* [no_handle] would name slot [slot_mask], past any store: a real
   handle is never negative. *)
let cancel t handle =
  let slot = handle land slot_mask in
  if handle <> no_handle && t.owners.(slot) = handle then begin
    t.owners.(slot) <- -1;
    t.payloads.(slot) <- empty;
    t.live <- t.live - 1;
    maybe_compact t
  end

(* Remove the root entry, live or dead, and free its slot.  The clock is
   not touched: skipping a dead root must not move it. *)
let drop_root t =
  t.free.(t.nfree) <- t.slots.(0);
  t.nfree <- t.nfree + 1;
  t.len <- t.len - 1;
  if t.len > 0 then begin
    move t ~src:t.len ~dst:0;
    sift_down t 0
  end

let rec skip_dead_roots t =
  if t.len > 0 && not (live_at t 0) then begin
    drop_root t;
    skip_dead_roots t
  end

(* The engine's hot pop: payload only, no option cell at all — the
   caller checks {!is_empty} first. *)
let pop_payload_exn t =
  skip_dead_roots t;
  if t.len = 0 then invalid_arg "Event_queue.pop_payload_exn: empty";
  let slot = t.slots.(0) in
  let payload = t.payloads.(slot) in
  t.payloads.(slot) <- empty;
  t.owners.(slot) <- -1;
  t.clock.(0) <- t.times.(0);
  t.live <- t.live - 1;
  drop_root t;
  Obj.obj payload

let pop t =
  if t.live = 0 then None
  else
    let payload = pop_payload_exn t in
    Some (t.clock.(0), payload)

(* The engine's run-limit check: the comparison stays here, so no time
   crosses into the engine to be boxed. *)
let due t ~limit =
  skip_dead_roots t;
  t.len > 0 && t.times.(0) <= limit

let peek_time t =
  skip_dead_roots t;
  if t.len = 0 then None else Some t.times.(0)
