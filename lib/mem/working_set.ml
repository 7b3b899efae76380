(* Pages live in a doubly-linked recency list, most recent at the
   head.  Reference times are non-decreasing, so a move-to-front on
   every reference keeps the list sorted by [last] descending and an
   in-window query only ever walks the prefix it returns — O(|answer|),
   not O(pages ever touched).

   The list is flat: every page ever referenced owns one slot in four
   parallel arrays — its index, its last-reference time (an unboxed
   float array), and its prev/next neighbours as slot numbers — reached
   from the page index through an int-keyed slot map.  Slot 0 is the
   sentinel that closes the circle ([next.(0)] is the head,
   [prev.(0)] the tail), so linking and unlinking never test for an
   end; a slot off the list has [prev] = -1.  A reference thus writes
   a few words into dense arrays and boxes no float.  The set-wide time
   marks (newest reference, widest window asked about, prune high-water
   cutoff) share one flat float array for the same reason.

   Pruning is amortized against references: entries that have aged out
   of the largest window ever asked about are unlinked from the list
   (the slot itself stays, keeping [distinct_pages] and re-reference
   exact).  The rare query that reaches further back than any previous
   prune falls back to the exhaustive fold over the slots, so answers
   are identical to the naive scan for every (time, window). *)

module Int_tbl = Accent_util.Int_tbl

type t = {
  window : Accent_sim.Time.t;
  slot_of : int Int_tbl.t; (* page index -> slot *)
  mutable idx : Page.index array;
  mutable last : float array;
  mutable prev : int array; (* -1: slot not on the list *)
  mutable next : int array;
  mutable used : int; (* slots handed out, sentinel included *)
  mutable refs : int;
  marks : float array; (* [0] newest; [1] max_window; [2] pruned_before *)
}

let initial_slots = 16

let create ~window =
  let t =
    {
      window;
      slot_of = Int_tbl.create initial_slots;
      idx = Array.make initial_slots (-1);
      last = Array.make initial_slots neg_infinity;
      prev = Array.make initial_slots (-1);
      next = Array.make initial_slots (-1);
      used = 1;
      refs = 0;
      marks = [| neg_infinity; window; neg_infinity |];
    }
  in
  (* the empty circle: the sentinel is its own head and tail *)
  t.prev.(0) <- 0;
  t.next.(0) <- 0;
  t

let window t = t.window

let grow t =
  let cap = Array.length t.idx in
  let extend a fill =
    let a' = Array.make (2 * cap) fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.idx <- extend t.idx (-1);
  t.last <- extend t.last neg_infinity;
  t.prev <- extend t.prev (-1);
  t.next <- extend t.next (-1)

let unlink t s =
  let p = t.prev.(s) in
  if p >= 0 then begin
    let n = t.next.(s) in
    t.next.(p) <- n;
    t.prev.(n) <- p;
    t.prev.(s) <- -1
  end

let link_front t s =
  let head = t.next.(0) in
  t.prev.(s) <- 0;
  t.next.(s) <- head;
  t.prev.(head) <- s;
  t.next.(0) <- s

(* Unlink entries that no window reaching back [max_window] from the
   newest reference can see.  Each slot is unlinked at most once per
   time it was linked, so the tail walk is O(1) amortized. *)
let prune t =
  let cutoff = t.marks.(0) -. t.marks.(1) in
  (* a loop, not a local closure: the cutoff stays unboxed *)
  while t.prev.(0) <> 0 && t.last.(t.prev.(0)) < cutoff do
    unlink t t.prev.(0)
  done;
  if cutoff > t.marks.(2) then t.marks.(2) <- cutoff

let reference t ~clock idx =
  let time = clock.(0) in
  t.refs <- t.refs + 1;
  if time > t.marks.(0) then t.marks.(0) <- time;
  (match Int_tbl.find t.slot_of idx with
  | s ->
      t.last.(s) <- time;
      if t.next.(0) <> s then begin
        unlink t s;
        link_front t s
      end
  | exception Not_found ->
      if t.used = Array.length t.idx then grow t;
      let s = t.used in
      t.used <- s + 1;
      t.idx.(s) <- idx;
      t.last.(s) <- time;
      Int_tbl.add t.slot_of idx s;
      link_front t s);
  prune t

(* Walk the recency prefix: skip entries newer than [time] (a query
   can look back from before the newest reference), take entries
   inside the window, stop at the first older one — everything behind
   it is older still. *)
let fold_prefix t ~time ~lo ~init ~f =
  let rec go acc s =
    if s = 0 then acc
    else
      let last = t.last.(s) in
      if last > time then go acc t.next.(s)
      else if last >= lo then go (f acc t.idx.(s)) t.next.(s)
      else acc
  in
  go init t.next.(0)

let fold_all t ~time ~lo ~init ~f =
  let acc = ref init in
  for s = 1 to t.used - 1 do
    let last = t.last.(s) in
    if last >= lo && last <= time then acc := f !acc t.idx.(s)
  done;
  !acc

let fold_window t ~time ~window ~init ~f =
  if window > t.marks.(1) then t.marks.(1) <- window;
  let lo = time -. window in
  if lo >= t.marks.(2) then fold_prefix t ~time ~lo ~init ~f
  else fold_all t ~time ~lo ~init ~f

let size_at t ~time =
  fold_window t ~time ~window:t.window ~init:0 ~f:(fun acc _ -> acc + 1)

let pages_at t ~time =
  fold_window t ~time ~window:t.window ~init:[] ~f:(fun acc idx -> idx :: acc)
  |> List.sort Int.compare

let pages_within t ~time ~window =
  fold_window t ~time ~window ~init:[] ~f:(fun acc idx -> idx :: acc)
  |> List.sort Int.compare

let references t = t.refs
let distinct_pages t = t.used - 1

(* --- process-image export / import -------------------------------------- *)

type snapshot = {
  entries : (Page.index * Accent_sim.Time.t) list;
  snap_refs : int;
}

let export t =
  (* ascending (last, idx): a replay in this order satisfies the
     non-decreasing-time contract of [reference] *)
  let entries =
    List.init (t.used - 1) (fun i -> (t.idx.(i + 1), t.last.(i + 1)))
    |> List.sort (fun (i1, t1) (i2, t2) ->
           match Float.compare t1 t2 with 0 -> Int.compare i1 i2 | c -> c)
  in
  { entries; snap_refs = t.refs }

let import t { entries; snap_refs } =
  if t.used <> 1 then invalid_arg "Working_set.import: set not empty";
  let clock = [| 0. |] in
  List.iter
    (fun (idx, time) ->
      clock.(0) <- time;
      reference t ~clock idx)
    entries;
  t.refs <- snap_refs
