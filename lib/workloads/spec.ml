open Accent_mem
open Accent_kernel

type t = {
  name : string;
  description : string;
  real_bytes : int;
  total_bytes : int;
  rs_bytes : int;
  touched_real_pages : int;
  rs_touched_overlap : int;
  real_runs : int;
  vm_segments : int;
  pattern : Access_pattern.t;
  refs : int;
  total_think_ms : float;
  zero_touch_pages : int;
  base_addr : int;
}

let realz_bytes t = t.total_bytes - t.real_bytes
let real_pages t = t.real_bytes / Page.size
let rs_pages t = t.rs_bytes / Page.size

let content_tag t =
  (* stable across runs: derived from the name only *)
  String.fold_left (fun acc c -> (acc * 131) + Char.code c) 7 t.name
  land 0x3FFFFFFF

let validate t =
  let page_multiple label n =
    if n mod Page.size <> 0 then
      invalid_arg (Printf.sprintf "%s: %s not a page multiple" t.name label)
  in
  page_multiple "real_bytes" t.real_bytes;
  page_multiple "total_bytes" t.total_bytes;
  page_multiple "rs_bytes" t.rs_bytes;
  page_multiple "base_addr" t.base_addr;
  if t.real_bytes <= 0 || t.total_bytes < t.real_bytes then
    invalid_arg (t.name ^ ": inconsistent real/total");
  if t.rs_bytes > t.real_bytes then invalid_arg (t.name ^ ": RS > Real");
  if t.touched_real_pages > real_pages t then
    invalid_arg (t.name ^ ": touched > real pages");
  if
    t.rs_touched_overlap > t.touched_real_pages
    || t.rs_touched_overlap > rs_pages t
  then invalid_arg (t.name ^ ": overlap too large");
  (* the RS pages outside the overlap must come from untouched pages *)
  if rs_pages t - t.rs_touched_overlap > real_pages t - t.touched_real_pages
  then invalid_arg (t.name ^ ": overlap too small for this RS size");
  if t.refs < t.touched_real_pages then
    invalid_arg (t.name ^ ": refs < touched pages");
  if not (t.total_think_ms > 0. && Float.is_finite t.total_think_ms) then
    invalid_arg (t.name ^ ": total_think_ms must be positive and finite");
  if
    t.touched_real_pages < 0 || t.rs_touched_overlap < 0
    || t.zero_touch_pages < 0
  then invalid_arg (t.name ^ ": negative page count");
  if t.real_runs < 1 || t.vm_segments < 1 then
    invalid_arg (t.name ^ ": runs/segments must be positive");
  if t.base_addr + t.total_bytes > Vaddr.space_limit then
    invalid_arg (t.name ^ ": exceeds the 4 GB space")

(* Share [i] of [total] split into [parts] integer shares, largest
   first. *)
let share total parts i = (total / parts) + if i < total mod parts then 1 else 0

(* The universe — every real page index, in address order — represented
   by the layout's installed slices instead of an O(pages) array: a
   collapsed-space position maps to a page index by binary search over
   the slices' cumulative page counts, so building and consuming the
   universe costs O(slices), independent of the address-space size. *)
type universe = {
  firsts : int array;  (* first page index of each slice, ascending *)
  cum : int array;  (* pages in all slices before this one *)
  u_total : int;
}

let universe_page u p =
  (* the slice holding position [p]: largest s with cum.(s) <= p *)
  let lo = ref 0 and hi = ref (Array.length u.cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if u.cum.(mid) <= p then lo := mid else hi := mid - 1
  done;
  u.firsts.(!lo) + (p - u.cum.(!lo))

(* Inverse of {!universe_page}; [idx] must be a universe member. *)
let universe_position u idx =
  let lo = ref 0 and hi = ref (Array.length u.firsts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if u.firsts.(mid) <= idx then lo := mid else hi := mid - 1
  done;
  u.cum.(!lo) + (idx - u.firsts.(!lo))

(* Lay the space out as gap/run/gap/run/.../gap and install run contents
   (straight to the paging disk, like data faulted in long ago).  Each
   slice goes in as one symbolic {!Page_run.pattern} — no value array is
   ever filled, and the space adopts each slice whole as a cold extent.
   Returns the universe and the first page of each zero-fill gap. *)
let build_layout space t =
  let tag = content_tag t and real = real_pages t in
  let runs = min t.real_runs real and zero = realz_bytes t / Page.size in
  (* each run is cut into label slices so the space carries exactly
     [vm_segments] distinct VM segments overall *)
  let cuts i =
    let pages = share real runs i in
    min pages (max 1 (((max runs t.vm_segments * pages) + real - 1) / real))
  in
  let n = ref 0 in
  for i = 0 to runs - 1 do
    n := !n + cuts i
  done;
  let firsts = Array.make !n 0 and cum = Array.make !n 0 in
  let labels = Array.make (min t.vm_segments !n) "" in
  let gap_starts = Array.make (min (runs + 1) zero) 0 in
  let addr = ref t.base_addr and s = ref 0 and installed = ref 0 in
  let emit_gap g =
    let pages = share zero (runs + 1) g in
    if pages > 0 then begin
      Address_space.validate_zero space
        (Vaddr.of_len !addr (pages * Page.size));
      gap_starts.(g) <- Page.index_of_addr !addr;
      addr := !addr + (pages * Page.size)
    end
  in
  for i = 0 to runs - 1 do
    emit_gap i;
    let pages = share real runs i and c = cuts i in
    for j = 0 to c - 1 do
      let len = share pages c j and seg = !s mod t.vm_segments in
      if !s = seg then labels.(seg) <- "seg" ^ Int.to_string seg;
      let first = Page.index_of_addr !addr in
      firsts.(!s) <- first;
      cum.(!s) <- !installed;
      installed := !installed + len;
      Address_space.install_run ~segment:labels.(seg) space ~addr:!addr
        (Page_run.pattern ~tag ~first ~len)
        ~resident:false;
      addr := !addr + (len * Page.size);
      incr s
    done
  done;
  emit_gap runs;
  assert (!installed = real);
  ({ firsts; cum; u_total = real }, gap_starts)

(* Promote [rs_touched_overlap] touched pages and the rest of the
   resident set from the untouched ones, each pick spread evenly over
   its side, in ascending page order.  The [j]-th of [k] untouched picks
   is the [j*m/k]-th untouched position: a cursor over the touched pages
   counts those at or below it. *)
let promote_resident space t ~universe:u ~touched =
  let n = Array.length touched and k1 = t.rs_touched_overlap in
  let k2 = rs_pages t - k1 and m = u.u_total - n in
  assert (k1 <= n && k2 <= m);
  let ti = ref 0 in
  let untouched j =
    if j >= k2 then max_int
    else begin
      let r = j * m / k2 in
      while !ti < n && universe_position u touched.(!ti) <= r + !ti do
        incr ti
      done;
      universe_page u (r + !ti)
    end
  in
  let i = ref 0 and j = ref 0 and next = ref (untouched 0) in
  while !i < k1 || !j < k2 do
    let from_touched = if !i < k1 then touched.(!i * n / k1) else max_int in
    if from_touched < !next then begin
      Address_space.resolve_disk_fault space from_touched;
      incr i
    end
    else begin
      Address_space.resolve_disk_fault space !next;
      incr j;
      next := untouched !j
    end
  done

let build ?(write_fraction = 0.) host t =
  validate t;
  let rng =
    Accent_sim.Engine.rng (Host.engine host) ("workload:" ^ t.name)
  in
  let space = Host.new_space host in
  let universe, gap_starts = build_layout space t in
  let touched =
    Access_pattern.choose_touched_in t.pattern ~rng
      ~universe_len:universe.u_total ~page_of:(universe_page universe)
      ~count:t.touched_real_pages
  in
  promote_resident space t ~universe ~touched;
  let trace =
    Access_pattern.generate t.pattern ~rng ~touched ~refs:t.refs
      ~total_think_ms:t.total_think_ms
      ~zero_fill:(min t.zero_touch_pages (Array.length gap_starts), gap_starts)
  in
  (* Post-conditions: state matches the paper's tables exactly. *)
  assert (Address_space.real_bytes space = t.real_bytes);
  assert (Address_space.total_bytes space = t.total_bytes);
  assert (Address_space.zero_bytes space = realz_bytes t);
  (* the resident set matches the table exactly unless the host's physical
     memory is too small to hold it (the memory-pressure ablation) *)
  (let resident = Address_space.resident_bytes space in
   assert (
     resident = t.rs_bytes
     || resident < t.rs_bytes
        && Accent_mem.Phys_mem.free_frames (Host.mem host) = 0));
  let trace =
    if write_fraction > 0. then
      Trace.with_writes ~rng ~fraction:write_fraction trace
    else trace
  in
  Host.spawn host ~name:t.name ~trace ~space ~n_ports:3 ()
