(* Entries [0, n) are the intervals in increasing order: entry [k] is
   [lo_at t k, hi_at t k) and carries [vals.(slot_at t k)].  The three
   ints of each entry live side by side in one [Bytes] vector, 8 bytes
   per int, so a splice shifts the entries with one memmove
   ([Array.blit] on an int array in the major heap would run the write
   barrier per element), and the values in [vals] never move.

   The pool holds values as [Obj.t] so that a slot can be empty without a
   dummy ['a]: it is made with an immediate, which never makes it a flat
   float array, and a slot goes back to an immediate the moment its
   entry leaves the map, so the map references a value only while an
   interval carries it.  The free slots form a chain threaded through
   the pool itself: [free] is the first, and a free slot holds the next
   one's number ([-1] ends the chain), so the pool needs no stack of its
   own.  [ents] and [vals] have the same capacity, and [n] plus the
   chain's length equals it.

   The capacity grows to exactly the entries needed up to [exact_max]
   and doubles past it, so a small map holds no spare entries: a
   five-interval space layout is 29 words.  An empty map holds no
   arrays at all. *)
type 'a t = {
  equal : 'a -> 'a -> bool;
  mutable ents : Bytes.t;
  mutable vals : Obj.t array;
  mutable free : int;
  mutable n : int;
}

let exact_max = 8
let entry_bytes = 24

(* [Bytes.get_int64_ne]/[set_int64_ne] themselves, bounds-checked; named
   as primitives so the int64 is never boxed on the way. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let lo_at t k = Int64.to_int (get64 t.ents (k * entry_bytes))
let hi_at t k = Int64.to_int (get64 t.ents ((k * entry_bytes) + 8))
let slot_at t k = Int64.to_int (get64 t.ents ((k * entry_bytes) + 16))
let value t k : 'a = Obj.obj t.vals.(slot_at t k)

let create ?(equal = ( = )) () =
  { equal; ents = Bytes.empty; vals = [||]; free = -1; n = 0 }

let cardinal t = t.n

(* The first entry whose upper bound exceeds [x] (strictly, or at least
   with [~eq:true]), or [n]: upper bounds are sorted because intervals
   are disjoint. *)
let search_hi t x ~eq =
  let l = ref 0 and r = ref t.n in
  while !l < !r do
    let mid = (!l + !r) lsr 1 in
    let h = hi_at t mid in
    if h > x || (eq && h = x) then r := mid else l := mid + 1
  done;
  !l

(* The first entry whose lower bound exceeds [x] (strictly, or at least
   with [~eq:true]), or [n]. *)
let search_lo t x ~eq =
  let l = ref 0 and r = ref t.n in
  while !l < !r do
    let mid = (!l + !r) lsr 1 in
    let v = lo_at t mid in
    if v > x || (eq && v = x) then r := mid else l := mid + 1
  done;
  !l

(* Put free slot [s] at the head of the chain. *)
let release t s =
  t.vals.(s) <- Obj.repr t.free;
  t.free <- s

let grow t ~cap =
  let old = Array.length t.vals in
  t.ents <- Bytes.extend t.ents 0 ((cap - old) * entry_bytes);
  let vals = Array.make cap (Obj.repr (-1)) in
  Array.blit t.vals 0 vals 0 old;
  t.vals <- vals;
  for s = cap - 1 downto old do
    release t s
  done

(* Drop entries [a, b), returning their slots to the pool, and open [m]
   entries at [a] for {!put} to fill, shifting the tail. *)
let splice t ~a ~b ~m =
  for k = a to b - 1 do
    release t (slot_at t k)
  done;
  let n = t.n in
  let n' = n - (b - a) + m in
  let cap = Array.length t.vals in
  if n' > cap then
    grow t ~cap:(if n' <= exact_max then n' else max n' (2 * cap));
  if b - a <> m then
    Bytes.blit t.ents (b * entry_bytes) t.ents ((a + m) * entry_bytes)
      ((n - b) * entry_bytes);
  t.n <- n'

let put t k lo hi (v : 'a) =
  let s = t.free in
  t.free <- Obj.obj t.vals.(s);
  t.vals.(s) <- Obj.repr v;
  let at = k * entry_bytes in
  set64 t.ents at (Int64.of_int lo);
  set64 t.ents (at + 8) (Int64.of_int hi);
  set64 t.ents (at + 16) (Int64.of_int s)

let set t ~lo ~hi v =
  if lo < hi then begin
    (* [a, b): the entries overlapping or abutting [lo, hi) — one left
       stub may stick out below [lo], one right stub above [hi] *)
    let a = search_hi t lo ~eq:true in
    let b = search_lo t hi ~eq:false in
    let left = a < b && lo_at t a < lo in
    let right = a < b && hi_at t (b - 1) > hi in
    let left_lo = if left then lo_at t a else lo in
    let right_hi = if right then hi_at t (b - 1) else hi in
    let left_v = if left then value t a else v in
    let right_v = if right then value t (b - 1) else v in
    (* an equal-valued stub coalesces into the new interval *)
    let merge_left = left && t.equal v left_v in
    let merge_right = right && t.equal v right_v in
    let keep_left = left && not merge_left in
    let keep_right = right && not merge_right in
    let new_lo = if merge_left then left_lo else lo in
    let new_hi = if merge_right then right_hi else hi in
    splice t ~a ~b ~m:(1 + Bool.to_int keep_left + Bool.to_int keep_right);
    let k = a + Bool.to_int keep_left in
    if keep_left then put t a left_lo lo left_v;
    put t k new_lo new_hi v;
    if keep_right then put t (k + 1) hi right_hi right_v
  end

let clear t ~lo ~hi =
  if lo < hi then begin
    (* [a, b): the entries overlapping [lo, hi); abutting ones stay *)
    let a = search_hi t lo ~eq:false in
    let b = search_lo t hi ~eq:true in
    if a < b then
      if lo_at t a >= lo && hi_at t (b - 1) <= hi && b - a = t.n then begin
        (* emptied: the storage goes with the last entry *)
        t.ents <- Bytes.empty;
        t.vals <- [||];
        t.free <- -1;
        t.n <- 0
      end
      else begin
        let left = lo_at t a < lo and right = hi_at t (b - 1) > hi in
        let left_lo = lo_at t a and left_v = value t a in
        let right_hi = hi_at t (b - 1) and right_v = value t (b - 1) in
        splice t ~a ~b ~m:(Bool.to_int left + Bool.to_int right);
        if left then put t a left_lo lo left_v;
        if right then put t (a + Bool.to_int left) hi right_hi right_v
      end
  end

let find_index t x =
  let k = search_lo t x ~eq:false - 1 in
  if k >= 0 && hi_at t k > x then k else -1

let find t x =
  let k = find_index t x in
  if k < 0 then raise Not_found else value t k

let ranges t =
  let rec build k acc =
    if k < 0 then acc
    else build (k - 1) ((lo_at t k, hi_at t k, value t k) :: acc)
  in
  build (t.n - 1) []

let fold t ~init ~f =
  let acc = ref init in
  for k = 0 to t.n - 1 do
    acc := f !acc (lo_at t k) (hi_at t k) (value t k)
  done;
  !acc

let fold_range t ~lo ~hi ~init ~f =
  if lo >= hi then init
  else begin
    let acc = ref init and k = ref (search_hi t lo ~eq:false) in
    while !k < t.n && lo_at t !k < hi do
      let i = !k in
      acc := f !acc (max (lo_at t i) lo) (min (hi_at t i) hi) (value t i);
      k := i + 1
    done;
    !acc
  end

let iter_range t ~lo ~hi ~f =
  fold_range t ~lo ~hi ~init:() ~f:(fun () a b v -> f a b v)

let fold_pieces t ~lo ~hi ~init ~f =
  if lo >= hi then init
  else begin
    let acc = ref init and pos = ref lo in
    let k = ref (search_hi t lo ~eq:false) in
    while !k < t.n && lo_at t !k < hi do
      let i = !k in
      let a = max (lo_at t i) lo and b = min (hi_at t i) hi in
      if a > !pos then acc := f !acc !pos a None;
      acc := f !acc a b (Some (value t i));
      pos := b;
      k := i + 1
    done;
    if !pos < hi then f !acc !pos hi None else !acc
  end

let total_length t = fold t ~init:0 ~f:(fun acc lo hi _ -> acc + hi - lo)

let length_where t ~f =
  fold t ~init:0 ~f:(fun acc lo hi v -> if f v then acc + hi - lo else acc)

let check_invariants t =
  let cap = Array.length t.vals in
  let ok = ref (Bytes.length t.ents = cap * entry_bytes && t.n <= cap) in
  (* a map only empties through the clear that drops its arrays *)
  if t.n = 0 && cap > 0 then ok := false;
  (* every slot is used by exactly one entry or sits once on the chain *)
  let seen = Array.make cap false in
  let mark s =
    if s < 0 || s >= cap || seen.(s) then ok := false else seen.(s) <- true
  in
  for k = 0 to t.n - 1 do
    mark (slot_at t k)
  done;
  let s = ref t.free and chained = ref 0 in
  while !ok && !s <> -1 do
    mark !s;
    incr chained;
    if !ok then s := Obj.obj t.vals.(!s)
  done;
  if t.n + !chained <> cap then ok := false;
  for k = 0 to t.n - 1 do
    if lo_at t k >= hi_at t k then ok := false;
    if k > 0 then begin
      let prev_hi = hi_at t (k - 1) in
      if
        prev_hi > lo_at t k
        || (prev_hi = lo_at t k && t.equal (value t (k - 1)) (value t k))
      then ok := false
    end
  done;
  !ok
