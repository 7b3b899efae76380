open Accent_util
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
  if t.real_runs < 1 || t.vm_segments < 1 then
    invalid_arg (t.name ^ ": runs/segments must be positive");
  if t.base_addr + t.total_bytes > Vaddr.space_limit then
    invalid_arg (t.name ^ ": exceeds the 4 GB space")

(* Split [total] into [parts] integer shares, largest-first remainders. *)
let shares total parts =
  let parts = max 1 parts in
  let base = total / parts and extra = total mod parts in
  List.init parts (fun i -> base + if i < extra then 1 else 0)

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
   ever filled, and the space adopts each slice whole as a cold extent. *)
let build_layout space t =
  let tag = content_tag t in
  let runs = min t.real_runs (real_pages t) in
  let run_sizes = Array.of_list (shares (real_pages t) runs) in
  let gap_sizes =
    Array.of_list (shares (realz_bytes t / Page.size) (runs + 1))
  in
  let installed = ref [] in
  let installed_pages = ref 0 in
  let zero_candidates = ref [] in
  let slices = max runs t.vm_segments in
  let slice_counter = ref 0 in
  let addr = ref t.base_addr in
  let emit_gap pages =
    if pages > 0 then begin
      Address_space.validate_zero space (Vaddr.of_len !addr (pages * Page.size));
      zero_candidates := Page.index_of_addr !addr :: !zero_candidates;
      addr := !addr + (pages * Page.size)
    end
  in
  let emit_run i pages =
    (* each run is cut into label slices so the space carries exactly
       [vm_segments] distinct VM segments overall *)
    let run_slices =
      let total = max 1 (real_pages t) in
      max 1 (((slices * pages) + total - 1) / total)
    in
    let run_slices = min run_slices pages in
    List.iter
      (fun slice_pages ->
        if slice_pages > 0 then begin
          let label =
            Printf.sprintf "seg%d" (!slice_counter mod t.vm_segments)
          in
          incr slice_counter;
          let first = Page.index_of_addr !addr in
          installed := (first, slice_pages) :: !installed;
          installed_pages := !installed_pages + slice_pages;
          Address_space.install_run ~segment:label space ~addr:!addr
            (Page_run.pattern ~tag ~first ~len:slice_pages)
            ~resident:false;
          addr := !addr + (slice_pages * Page.size)
        end)
      (shares pages run_slices);
    ignore i
  in
  Array.iteri
    (fun i run_pages ->
      emit_gap gap_sizes.(i);
      emit_run i run_pages)
    run_sizes;
  emit_gap gap_sizes.(runs);
  assert (!installed_pages = real_pages t);
  let slabs = Array.of_list (List.rev !installed) in
  let n = Array.length slabs in
  let firsts = Array.map fst slabs in
  let cum = Array.make n 0 in
  for s = 1 to n - 1 do
    cum.(s) <- cum.(s - 1) + snd slabs.(s - 1)
  done;
  ({ firsts; cum; u_total = !installed_pages }, List.rev !zero_candidates)

(* Pick [k] elements of [arr] spread evenly. *)
let spread_pick arr k =
  let n = Array.length arr in
  if k > n then invalid_arg "spread_pick: not enough eligible elements";
  List.init k (fun i -> arr.(i * n / max 1 k))

(* {!spread_pick} over the whole universe with the touched pages excluded,
   without materialising the eligible array: the i-th pick is the
   [i*n/k]-th untouched position, found by walking the sorted touched
   positions with a cursor (the [r]-th untouched position is [r + ti]
   where [ti] counts the touched positions at or below it). *)
let spread_pick_untouched u k ~touched =
  let excl = Array.map (universe_position u) touched in
  let n = u.u_total - Array.length excl in
  if k > n then invalid_arg "spread_pick: not enough eligible elements";
  let ti = ref 0 and acc = ref [] in
  for i = 0 to k - 1 do
    let r = i * n / max 1 k in
    while !ti < Array.length excl && excl.(!ti) <= r + !ti do
      incr ti
    done;
    acc := universe_page u (r + !ti) :: !acc
  done;
  List.rev !acc

let promote_resident space t ~universe ~touched =
  let from_touched = spread_pick touched t.rs_touched_overlap in
  let rest = rs_pages t - t.rs_touched_overlap in
  let from_untouched = spread_pick_untouched universe rest ~touched in
  let resident = List.sort_uniq compare (from_touched @ from_untouched) in
  assert (List.length resident = rs_pages t);
  List.iter (fun idx -> Address_space.resolve_disk_fault space idx) resident

(* Interleave FillZero touches (stack growth and the like) into the trace
   at evenly-spread positions.  Insertion [i] lands just before original
   step [(i+1)*n/(z+1)], same slots as the list walk this replaces. *)
let add_zero_touches ~rng t ~zero_candidates trace =
  let n = Trace.length trace in
  let z = min t.zero_touch_pages (List.length zero_candidates) in
  if z = 0 || n = 0 then trace
  else begin
    let candidates = Array.of_list zero_candidates in
    Rng.shuffle rng candidates;
    let pages = Array.make (n + z) 0 in
    let think_ms = Array.make (n + z) 0. in
    let writes = Bytes.make (n + z) '\000' in
    let oi = ref 0 and ins = ref 0 in
    for i = 0 to n - 1 do
      while !ins < z && (!ins + 1) * n / (z + 1) = i do
        pages.(!oi) <- candidates.(!ins);
        think_ms.(!oi) <- 1.0;
        incr oi;
        incr ins
      done;
      pages.(!oi) <- Trace.page_at trace i;
      think_ms.(!oi) <- Trace.think_at trace i;
      if Trace.write_at trace i then Bytes.set writes !oi '\001';
      incr oi
    done;
    assert (!ins = z && !oi = n + z);
    Trace.of_arrays ~pages ~think_ms ~writes
  end

let build ?(write_fraction = 0.) host t =
  validate t;
  let rng =
    Accent_sim.Engine.rng (Host.engine host) ("workload:" ^ t.name)
  in
  let space = Host.new_space host in
  let universe, zero_candidates = build_layout space t in
  let touched =
    Access_pattern.choose_touched_in t.pattern ~rng
      ~universe_len:universe.u_total ~page_of:(universe_page universe)
      ~count:t.touched_real_pages
  in
  promote_resident space t ~universe ~touched;
  let trace =
    Access_pattern.generate t.pattern ~rng ~touched ~refs:t.refs
      ~total_think_ms:t.total_think_ms
  in
  let trace = add_zero_touches ~rng t ~zero_candidates trace in
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
