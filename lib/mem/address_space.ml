module Int_tbl = Accent_util.Int_tbl

type backing = Zero | Real | Imaginary of { segment_id : int; base : int }
(* [base] is chosen so that the segment offset of an address [a] inside the
   region is [base + a]: regions mapping consecutive segment offsets then
   carry equal [base] values and coalesce in the interval map. *)

type presence =
  | Resident of Phys_mem.frame_id
  | Paged_out
  | Zero_pending
  | Imaginary_pending of { segment_id : int; offset : int }
  | Invalid

(* A page-table entry is one immediate int: the location kind in bits
   0-1, the touched bit in bit 2, and the frame or block id above.  A
   page has an entry iff it is located or touched; a touched page with no
   location has kind [no_loc]. *)
let no_loc = 0
let in_mem = 1
let on_disk = 2
let touched_bit = 4
let kind e = e land 3
let slot e = e lsr 3
let located ~kind id = (id lsl 3) lor kind

type cold_run = { first : Page.index; run : Page_run.t }
(* An installed run of never-touched disk-resident pages, of any length,
   kept as one adopted run instead of one table entry + disk block per
   page.  A page leaves its run (fault-in, overwrite) only by being given
   a location, so a located page has already left it; the run itself is
   never rewritten.  This is what keeps workload construction and
   excision O(runs), not O(space). *)

let no_run = { first = 0; run = Page_run.empty }

type t = {
  id : int;
  mem : Phys_mem.t;
  disk : Paging_disk.t;
  regions : backing Interval_map.t;
  pages : int Int_tbl.t; (* the one page table: packed entries *)
  mutable located : int;
  mutable resident : int;
  mutable touched : int;
  mutable cold : cold_run array; (* [0, cold_len) ascending by [first] *)
  mutable cold_len : int;
  mutable cold_live : int;
  mutable segments : string list; (* distinct labels, newest first *)
}

let backing_equal a b =
  match (a, b) with
  | Zero, Zero | Real, Real -> true
  | Imaginary { segment_id = s1; base = b1 },
    Imaginary { segment_id = s2; base = b2 } ->
      s1 = s2 && b1 = b2
  | (Zero | Real | Imaginary _), _ -> false

let create ~id ~mem ~disk =
  {
    id;
    mem;
    disk;
    regions = Interval_map.create ~equal:backing_equal ();
    pages = Int_tbl.create 16;
    located = 0;
    resident = 0;
    touched = 0;
    cold = [||];
    cold_len = 0;
    cold_live = 0;
    segments = [];
  }

let id t = t.id

let require_aligned op (range : Vaddr.range) =
  if not (Vaddr.page_aligned range) then
    invalid_arg (Printf.sprintf "Address_space.%s: range not page-aligned" op)

let require_unmapped t op (range : Vaddr.range) =
  let occupied =
    Interval_map.fold_range t.regions ~lo:range.lo ~hi:range.hi ~init:false
      ~f:(fun _ _ _ _ -> true)
  in
  if occupied then
    invalid_arg (Printf.sprintf "Address_space.%s: range already validated" op)

let validate_zero t range =
  require_aligned "validate_zero" range;
  require_unmapped t "validate_zero" range;
  Interval_map.set t.regions ~lo:range.lo ~hi:range.hi Zero

let map_imaginary t range ~segment_id ~offset =
  require_aligned "map_imaginary" range;
  require_unmapped t "map_imaginary" range;
  if offset mod Page.size <> 0 then
    invalid_arg "Address_space.map_imaginary: unaligned segment offset";
  Interval_map.set t.regions ~lo:range.lo ~hi:range.hi
    (Imaginary { segment_id; base = offset - range.lo })

let page_range idx =
  (Page.addr_of_index idx, Page.addr_of_index idx + Page.size)

(* Binary search: the position of the last cold run starting at or below
   [idx], or -1.  Runs never overlap, so only that run can hold [idx]. *)
let cold_search t idx =
  let lo = ref (-1) and hi = ref (t.cold_len - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.cold.(mid).first <= idx then lo := mid else hi := mid - 1
  done;
  !lo

(* The entry of [idx]; 0 (no location, untouched) if it has none. *)
let entry t idx = try Int_tbl.find t.pages idx with Not_found -> 0

(* The position of the cold run holding [idx], or -1. *)
let cold_index t idx =
  let i = cold_search t idx in
  if i >= 0 && idx < t.cold.(i).first + Page_run.length t.cold.(i).run then i
  else -1

(* The cold value at [idx], for a page with no location. *)
let cold_find t idx =
  let i = cold_index t idx in
  if i < 0 then None
  else Some (Page_run.get t.cold.(i).run (idx - t.cold.(i).first))

(* Every caller adds in ascending address order, so the insert is nearly
   always an append; an out-of-order run shifts the tail up one slot. *)
let cold_add t first run =
  if t.cold_len = Array.length t.cold then begin
    let grown = Array.make ((2 * t.cold_len) + 1) no_run in
    Array.blit t.cold 0 grown 0 t.cold_len;
    t.cold <- grown
  end;
  let at = cold_search t first + 1 in
  Array.blit t.cold at t.cold (at + 1) (t.cold_len - at);
  t.cold.(at) <- { first; run };
  t.cold_len <- t.cold_len + 1;
  t.cold_live <- t.cold_live + Page_run.length run

(* Free the frame or disk block an entry holds, if any. *)
let release t e =
  if kind e = in_mem then begin
    Phys_mem.free t.mem (slot e);
    t.resident <- t.resident - 1
  end
  else if kind e = on_disk then Paging_disk.free t.disk (slot e)

(* Store [value] at a new location for [idx], releasing its old one; a
   page given its first location leaves its cold run, if it is in one.
   The touched bit is kept. *)
let locate t idx value ~resident =
  let e = entry t idx in
  if kind e = no_loc then begin
    t.located <- t.located + 1;
    if cold_index t idx >= 0 then t.cold_live <- t.cold_live - 1
  end
  else release t e;
  let loc =
    if resident then begin
      let frame =
        Phys_mem.allocate t.mem ~space_id:t.id ~page:idx value
      in
      t.resident <- t.resident + 1;
      located ~kind:in_mem frame
    end
    else located ~kind:on_disk (Paging_disk.alloc t.disk value)
  in
  Int_tbl.replace t.pages idx (loc lor (e land touched_bit))

let materialize t idx value ~resident =
  locate t idx value ~resident;
  let lo, hi = page_range idx in
  (* the common fault path re-materializes a page of an existing Real
     region; skip the interval-map splice when the class already agrees *)
  match Interval_map.find t.regions lo with
  | Real -> ()
  | Zero | Imaginary _ | (exception Not_found) ->
      Interval_map.set t.regions ~lo ~hi Real

(* A space carries few labels (at most 120, for the largest
   representative), so a list of the distinct ones is enough, at 3
   words a label. *)
let add_segment t label =
  if not (List.mem label t.segments) then t.segments <- label :: t.segments

let install_run ?(segment = "<anon>") t ~addr run ~resident =
  if addr mod Page.size <> 0 then
    invalid_arg "Address_space.install_run: unaligned address";
  add_segment t segment;
  let n = Page_run.length run in
  if n > 0 then begin
    let first = Page.index_of_addr addr in
    let lo = addr and hi = addr + (n * Page.size) in
    let overlaps_real =
      Interval_map.fold_range t.regions ~lo ~hi ~init:false
        ~f:(fun acc _ _ backing ->
          acc || match backing with Real -> true | Zero | Imaginary _ -> false)
    in
    if (not resident) && not overlaps_real then begin
      (* Cold install: the run is adopted whole as one extent — no
         per-page table entry, no per-page disk block, no copy.  Only
         valid when no page in the range was previously materialised (no
         Real backing), which is the workload-construction case this path
         exists for. *)
      cold_add t first run;
      Interval_map.set t.regions ~lo ~hi Real
    end
    else begin
      (* One interval-map update for the whole run instead of one per
         page; the per-page location entries remain. *)
      Page_run.iteri (fun i value -> locate t (first + i) value ~resident) run;
      Interval_map.set t.regions ~lo ~hi Real
    end
  end

let install_values ?segment t ~addr values ~resident =
  install_run ?segment t ~addr (Page_run.copy_of_array values) ~resident

let install_bytes ?segment t ~addr data ~resident =
  let len = Bytes.length data in
  let n_pages = (len + Page.size - 1) / Page.size in
  let values =
    Array.init n_pages (fun i ->
        let off = i * Page.size in
        if off + Page.size <= len && len mod Page.size = 0 then
          Page.of_bytes (Bytes.sub data off Page.size)
        else begin
          (* trailing partial page: zero-pad *)
          let page = Page.zero () in
          Bytes.blit data off page 0 (min Page.size (len - off));
          Page.of_bytes page
        end)
  in
  install_values ?segment t ~addr values ~resident

let presence_of_page t idx =
  let e = entry t idx in
  if kind e = in_mem then Resident (slot e)
  else if kind e = on_disk then Paged_out
  else
    match cold_find t idx with
    | Some _ -> Paged_out
    | None -> (
        let addr = Page.addr_of_index idx in
        match Interval_map.find t.regions addr with
        | Zero -> Zero_pending
        | Imaginary { segment_id; base } ->
            Imaginary_pending { segment_id; offset = base + addr }
        | Real ->
            (* Region says Real but no page entry: broken invariant. *)
            assert false
        | exception Not_found -> Invalid)

let presence t addr = presence_of_page t (Page.index_of_addr addr)

let classify t addr : Accessibility.t =
  match presence t addr with
  | Resident _ | Paged_out -> Real_mem
  | Zero_pending -> Real_zero_mem
  | Imaginary_pending _ -> Imag_mem
  | Invalid -> Bad_mem

let build_amap t =
  let ranges =
    Interval_map.fold t.regions ~init:[] ~f:(fun acc lo hi backing ->
        let cls : Accessibility.t =
          match backing with
          | Zero -> Real_zero_mem
          | Real -> Real_mem
          | Imaginary _ -> Imag_mem
        in
        (lo, hi, cls) :: acc)
  in
  Amap.of_ranges (List.rev ranges)

let resolve_zero_fault t idx =
  match presence_of_page t idx with
  | Zero_pending -> materialize t idx Page.zero_value ~resident:true
  | _ -> invalid_arg "Address_space.resolve_zero_fault: page not zero-pending"

let resolve_disk_fault t idx =
  let e = entry t idx in
  let not_on_disk () =
    invalid_arg "Address_space.resolve_disk_fault: page not on disk"
  in
  if kind e = on_disk then
    (* re-homed in place: the page left any cold run when it was first
       located, and its region is already Real *)
    locate t idx (Paging_disk.read t.disk (slot e)) ~resident:true
  else if kind e = in_mem then not_on_disk ()
  else
    match cold_find t idx with
    | Some value -> materialize t idx value ~resident:true
    | None -> not_on_disk ()

let resolve_imaginary_fault t idx value =
  match presence_of_page t idx with
  | Imaginary_pending _ -> materialize t idx value ~resident:true
  | _ ->
      invalid_arg "Address_space.resolve_imaginary_fault: page not imaginary"

(* The pager's fast path: one page-table probe that marks the page
   touched, answers "is it resident?" and bumps LRU recency, so the
   overwhelmingly common no-fault reference of a touched page allocates
   nothing and leaves the table as it was. *)
let reference t idx =
  let e = entry t idx in
  if e land touched_bit = 0 then begin
    t.touched <- t.touched + 1;
    Int_tbl.replace t.pages idx (e lor touched_bit)
  end;
  if kind e = in_mem then begin
    Phys_mem.touch t.mem (slot e);
    true
  end
  else false

let page_value t idx =
  let e = entry t idx in
  if kind e = in_mem then Some (Phys_mem.read t.mem (slot e))
  else if kind e = on_disk then Some (Paging_disk.read t.disk (slot e))
  else cold_find t idx

(* --- process-image export / import ------------------------------------- *)

type page_home = Home_resident | Home_disk | Home_cold

type image_run =
  | Img_zero of { lo : int; hi : int }
  | Img_real of {
      lo : int;
      run : Page_run.t;
      homes : (int * page_home) list;
    }
  | Img_imag of { lo : int; hi : int; segment_id : int; offset : int }

(* The [n] entries of kind [want], as [(page, entry)] ascending by page.
   Sorted via an array: a capture sorts the full located set, and a list
   merge sort's per-level cons cells are the single biggest allocation of
   the whole export.  The array sort is in-place. *)
let sorted_entries t ~n ~want =
  let a = Array.make n (0, 0) in
  let i = ref 0 in
  Int_tbl.iter
    (fun idx e ->
      if want (kind e) then begin
        a.(!i) <- (idx, e);
        incr i
      end)
    t.pages;
  Array.sort
    (fun ((x : int), _) ((y : int), _) ->
      if x < y then -1 else if x > y then 1 else 0)
    a;
  Array.to_list a

(* The located overlay, presorted, and a cursor over the (already
   ascending) cold runs: one export shares a single O(overlay log overlay)
   preparation across every Real range instead of re-walking the page
   table once per range.  Both are consumed monotonically as
   [gather_real] is called over ascending ranges. *)
type overlay = {
  mutable ov_mats : (Page.index * int) list; (* ascending, packed entries *)
  mutable ov_cold : int; (* next cold run that may cover a range *)
}

let overlay_of t =
  {
    ov_mats = sorted_entries t ~n:t.located ~want:(fun k -> k <> no_loc);
    ov_cold = 0;
  }

(* Kernel-side gathering (excision, checkpoint, pre-copy rounds) reads
   pages without bumping the LRU clock: a migration read is not a process
   reference, and per-page recency bumps during a capture both distort
   eviction order and queue an LRU pair per resident page. *)
let read_location t e =
  if kind e = in_mem then Phys_mem.peek t.mem (slot e)
  else Paging_disk.read t.disk (slot e)

(* Gather the Real range [lo, hi) as view parts over the cold runs plus
   located singletons, in page order, with a run-length encoding of
   where each page lives.  O(parts + located-in-range), and no page
   value is ever copied — cold stretches are shared sub-views (a located
   page has left its run, so the located singletons cut the stretches).
   Raises [Failure] if some page of the range has no materialized
   value. *)
let gather_real t ov ~lo ~hi =
  let first = Page.index_of_addr lo and last = Page.index_of_addr (hi - 1) in
  let missing () =
    failwith "Address_space.range_run: Real range with missing page"
  in
  let parts = Page_run.builder () and homes = ref [] in
  let push_home len home =
    match !homes with
    | (n, h) :: rest when h = home -> homes := (n + len, home) :: rest
    | _ -> homes := (len, home) :: !homes
  in
  while (match ov.ov_mats with (i, _) :: _ -> i < first | [] -> false) do
    ov.ov_mats <- List.tl ov.ov_mats
  done;
  let pos = ref first in
  while !pos <= last do
    match ov.ov_mats with
    | (i, loc) :: rest when i = !pos ->
        Page_run.builder_add parts (Page_run.singleton (read_location t loc));
        push_home 1 (if kind loc = in_mem then Home_resident else Home_disk);
        ov.ov_mats <- rest;
        incr pos
    | _ ->
        (* a cold stretch, up to the next materialized page *)
        let stop =
          match ov.ov_mats with
          | (i, _) :: _ when i <= last -> i - 1
          | _ -> last
        in
        let rec covering () =
          if ov.ov_cold >= t.cold_len then missing ()
          else
            let c = t.cold.(ov.ov_cold) in
            if c.first + Page_run.length c.run <= !pos then begin
              ov.ov_cold <- ov.ov_cold + 1;
              covering ()
            end
            else if c.first <= !pos then c
            else missing ()
        in
        let { first = f; run } = covering () in
        let piece_end = min stop (f + Page_run.length run - 1) in
        let len = piece_end - !pos + 1 in
        Page_run.builder_add parts (Page_run.sub run ~pos:(!pos - f) ~len);
        push_home len Home_cold;
        pos := piece_end + 1
  done;
  (Page_run.builder_run parts, List.rev !homes)

(* Every Real range with its values as one shared view, sharing a single
   overlay preparation across all ranges (regions are ascending, which is
   the order gather_real consumes the overlay in). *)
let real_runs t =
  let ov = overlay_of t in
  Interval_map.fold t.regions ~init:[] ~f:(fun acc lo hi backing ->
      match backing with
      | Real -> (lo, fst (gather_real t ov ~lo ~hi)) :: acc
      | Zero | Imaginary _ -> acc)
  |> List.rev

let export_image t =
  let ov = overlay_of t in
  List.map
    (fun (lo, hi, backing) ->
      match backing with
      | Zero -> Img_zero { lo; hi }
      | Real ->
          let run, homes = gather_real t ov ~lo ~hi in
          Img_real { lo; run; homes }
      | Imaginary { segment_id; base } ->
          Img_imag { lo; hi; segment_id; offset = base + lo })
    (Interval_map.ranges t.regions)

let import_image t runs =
  if Interval_map.cardinal t.regions <> 0 then
    invalid_arg "Address_space.import_image: space not empty";
  List.iter
    (fun run ->
      match run with
      | Img_zero { lo; hi } -> validate_zero t (Vaddr.range lo hi)
      | Img_imag { lo; hi; segment_id; offset } ->
          map_imaginary t (Vaddr.range lo hi) ~segment_id ~offset
      | Img_real { lo; run; homes } ->
          let n = Page_run.length run in
          if n = 0 || List.fold_left (fun a (l, _) -> a + l) 0 homes <> n then
            invalid_arg "Address_space.import_image: malformed real run";
          add_segment t "image";
          let first = Page.index_of_addr lo in
          (* cold stretches rebuild as cold extents, shared as views of
             the incoming run — per-page table entries and disk blocks
             only for pages that had them *)
          let pos = ref 0 in
          List.iter
            (fun (len, home) ->
              (match home with
              | Home_cold ->
                  cold_add t (first + !pos) (Page_run.sub run ~pos:!pos ~len)
              | Home_resident | Home_disk ->
                  for i = !pos to !pos + len - 1 do
                    locate t (first + i) (Page_run.get run i)
                      ~resident:(home = Home_resident)
                  done);
              pos := !pos + len)
            homes;
          Interval_map.set t.regions ~lo ~hi:(lo + (n * Page.size)) Real)
    runs

(* Representation-independent equality: image runs compare by content
   (page values and homes), not by how their runs happen to be sliced. *)
let image_run_equal a b =
  match (a, b) with
  | Img_zero a, Img_zero b -> a.lo = b.lo && a.hi = b.hi
  | Img_imag a, Img_imag b ->
      a.lo = b.lo && a.hi = b.hi && a.segment_id = b.segment_id
      && a.offset = b.offset
  | Img_real a, Img_real b ->
      a.lo = b.lo && a.homes = b.homes && Page_run.equal a.run b.run
  | (Img_zero _ | Img_real _ | Img_imag _), _ -> false

let image_equal a b =
  List.length a = List.length b && List.for_all2 image_run_equal a b

let page_data t idx = Option.map Page.to_bytes (page_value t idx)

let write_page t idx value =
  let e = entry t idx in
  if kind e = in_mem then Phys_mem.write t.mem (slot e) value
  else invalid_arg "Address_space.write_page: page not resident"

let evict_page t idx value ~dirty =
  ignore dirty;
  let e = entry t idx in
  if kind e = in_mem then begin
    (* The frame itself is reclaimed by Phys_mem; we just record where the
       contents now live. *)
    let block = Paging_disk.alloc t.disk value in
    t.resident <- t.resident - 1;
    Int_tbl.replace t.pages idx
      (located ~kind:on_disk block lor (e land touched_bit))
  end
  else invalid_arg "Address_space.evict_page: page not resident"

let resident_pages t =
  List.map
    (fun (idx, e) -> (idx, slot e))
    (sorted_entries t ~n:t.resident ~want:(fun k -> k = in_mem))

let resident_page_count t = t.resident
let resident_bytes t = t.resident * Page.size
let real_bytes t = (t.located + t.cold_live) * Page.size

let zero_bytes t =
  Interval_map.length_where t.regions ~f:(function
    | Zero -> true
    | Real | Imaginary _ -> false)

let imag_bytes t =
  Interval_map.length_where t.regions ~f:(function
    | Imaginary _ -> true
    | Real | Zero -> false)

let total_bytes t = Interval_map.total_length t.regions

let real_ranges t =
  Interval_map.fold t.regions ~init:[] ~f:(fun acc lo hi backing ->
      match backing with
      | Real -> (lo, hi) :: acc
      | Zero | Imaginary _ -> acc)
  |> List.rev

let imag_segments t =
  let tbl = Hashtbl.create 8 in
  Interval_map.iter_range t.regions ~lo:0 ~hi:Vaddr.space_limit
    ~f:(fun lo hi backing ->
      match backing with
      | Imaginary { segment_id; base = _ } ->
          let prev =
            Option.value ~default:0 (Hashtbl.find_opt tbl segment_id)
          in
          Hashtbl.replace tbl segment_id (prev + hi - lo)
      | Zero | Real -> ());
  Hashtbl.fold (fun seg bytes acc -> (seg, bytes) :: acc) tbl []
  |> List.sort (fun ((s1 : int), (b1 : int)) (s2, b2) ->
         match Int.compare s1 s2 with 0 -> Int.compare b1 b2 | c -> c)

let region_count t = Interval_map.cardinal t.regions
let vm_segment_count t = List.length t.segments
let vm_segment_labels t = t.segments
let touched_pages t = t.touched
let pages_materialized t = t.located + t.cold_live

(* The one unsorted fold over the page table: the release order only
   decides which frame and block ids the free lists hand out next, and
   ids never order anything (LRU keys order by their unique tick).  The
   touched count outlives the table: it is what the process referenced. *)
let destroy t =
  Int_tbl.iter (fun _ e -> release t e) t.pages;
  Int_tbl.reset t.pages;
  t.located <- 0;
  (* cold runs hold no frames and no disk blocks — dropping the array is
     the whole teardown *)
  t.cold <- [||];
  t.cold_len <- 0;
  t.cold_live <- 0;
  Interval_map.clear t.regions ~lo:min_int ~hi:max_int
