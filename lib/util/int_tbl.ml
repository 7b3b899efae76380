(* One flat open-addressing table.  [slots] interleaves keys and values,
   as [Event_queue]'s and [Interval_map]'s stores do: slot [i]'s key is
   the immediate at [2i] and its value at [2i + 1].  The array is made
   from an immediate, so it is never a flat float array, and a free
   slot holds [min_int] in both cells, so it references nothing.

   Positions are array indices, always even: a key's home is its hash
   masked by [mask = Array.length slots - 2], and a probe steps by 2
   modulo the length.  Every table starts on [unallocated], a shared
   one-slot array that is never written: the first insert finds it over
   its load bound and allocates [initial] slots. *)

type 'a t = {
  mutable slots : Obj.t array;
  mutable size : int;
  initial : int; (* slots of the first allocation, a power of two *)
}

let empty = min_int
let empty_cell = Obj.repr empty
let unallocated = [| empty_cell; empty_cell |]

let create n =
  let rec pow2 c = if c >= n then c else pow2 (2 * c) in
  { slots = unallocated; size = 0; initial = pow2 8 }

let length t = t.size

let reset t =
  t.slots <- unallocated;
  t.size <- 0

let[@inline] key_at s i : int = Obj.obj (Array.unsafe_get s i)

(* A key cell only ever holds an immediate, before and after the write,
   so it is written through an [int array] view of the slots: a plain
   store, with no [caml_modify].  Value cells keep the barrier. *)
let[@inline] set_key s i (key : int) =
  Array.unsafe_set (Obj.magic s : int array) i key

(* Multiply-xorshift: the mask keeps only the low bits, so fold the high
   half of the product down — strided page indices and aligned offsets
   then spread over every slot, not just the few their low bits
   select. *)
let[@inline] home key mask =
  let h = key * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 32)) lsl 1 land mask

(* The position holding [key], or the free one that ends its probe.  A
   [min_int] key always stops at a free slot, so it is never found. *)
let[@inline] locate s key =
  let mask = Array.length s - 2 in
  let i = ref (home key mask) in
  while
    let k = key_at s !i in
    k <> key && k <> empty
  do
    i := (!i + 2) land mask
  done;
  !i

let find t key =
  let s = t.slots in
  let i = locate s key in
  if key_at s i = empty then raise Not_found
  else Obj.obj (Array.unsafe_get s (i + 1))

let find_opt t key =
  let s = t.slots in
  let i = locate s key in
  if key_at s i = empty then None
  else Some (Obj.obj (Array.unsafe_get s (i + 1)))

let mem t key = key_at t.slots (locate t.slots key) <> empty

(* Double the slots (or make the first [initial]) and re-place every
   key; keys are distinct, so each probe stops at a free slot. *)
let grow t =
  let old = t.slots in
  let len =
    if old == unallocated then 2 * t.initial else 2 * Array.length old
  in
  let s = Array.make len empty_cell in
  for j = 0 to (Array.length old / 2) - 1 do
    let key = key_at old (2 * j) in
    if key <> empty then begin
      let i = locate s key in
      set_key s i key;
      Array.unsafe_set s (i + 1) (Array.unsafe_get old ((2 * j) + 1))
    end
  done;
  t.slots <- s

let replace t key value =
  if key = empty then invalid_arg "Int_tbl: min_int is not a key";
  let i = locate t.slots key in
  if key_at t.slots i = key then
    Array.unsafe_set t.slots (i + 1) (Obj.repr value)
  else begin
    (* a new key: keep at most 3/4 of the slots (length / 2) taken *)
    let i =
      if 8 * (t.size + 1) > 3 * Array.length t.slots then begin
        grow t;
        locate t.slots key
      end
      else i
    in
    set_key t.slots i key;
    Array.unsafe_set t.slots (i + 1) (Obj.repr value);
    t.size <- t.size + 1
  end

let add = replace

(* Backward-shift deletion: walk the run after the hole and pull back
   every entry whose home is not between the hole and where it sits, so
   no probe ever meets a gap inside its run and no tombstone is left. *)
let remove t key =
  let s = t.slots in
  let i = locate s key in
  if key_at s i <> empty then begin
    let mask = Array.length s - 2 in
    let hole = ref i and j = ref ((i + 2) land mask) in
    while key_at s !j <> empty do
      let k = key_at s !j in
      if (!j - home k mask) land mask >= (!j - !hole) land mask then begin
        set_key s !hole k;
        Array.unsafe_set s (!hole + 1) (Array.unsafe_get s (!j + 1));
        hole := !j
      end;
      j := (!j + 2) land mask
    done;
    set_key s !hole empty;
    Array.unsafe_set s (!hole + 1) empty_cell;
    t.size <- t.size - 1
  end

let fold f t init =
  let s = t.slots in
  let acc = ref init in
  for j = 0 to (Array.length s / 2) - 1 do
    let key = key_at s (2 * j) in
    if key <> empty then
      acc := f key (Obj.obj (Array.unsafe_get s ((2 * j) + 1))) !acc
  done;
  !acc

let iter f t = fold (fun key value () -> f key value) t ()
