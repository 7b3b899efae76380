open Accent_mem

(* A segment is an overlay of individually-written pages over a small list
   of bulk extents.  [put_extent] adopts a whole page-value array in O(1)
   instead of one table insert per page — the NetMsgServer caches every
   outbound Data chunk this way, so the per-page path would otherwise put
   an O(space) insert loop on every migration send. *)
type seg = {
  pages : (int, Page.value) Hashtbl.t; (* singles; consulted first *)
  mutable extents : (int * Page_run.t) list; (* (byte offset, run) *)
}

type t = (int, seg) Hashtbl.t

let create () : t = Hashtbl.create 16

let segment t segment_id =
  match Hashtbl.find_opt t segment_id with
  | Some seg -> seg
  | None ->
      let seg = { pages = Hashtbl.create 256; extents = [] } in
      Hashtbl.replace t segment_id seg;
      seg

let put_page t ~segment_id ~offset value =
  if offset mod Page.size <> 0 then
    invalid_arg "Segment_store.put_page: unaligned offset";
  Hashtbl.replace (segment t segment_id).pages offset value

let extent_bytes run = Page_run.length run * Page.size

let put_extent t ~segment_id ~offset run =
  if offset mod Page.size <> 0 then
    invalid_arg "Segment_store.put_extent: unaligned offset";
  if Page_run.length run > 0 then begin
    let seg = segment t segment_id in
    let hi = offset + extent_bytes run in
    List.iter
      (fun (lo, vs) ->
        if offset < lo + extent_bytes vs && lo < hi then
          invalid_arg "Segment_store.put_extent: overlapping extent")
      seg.extents;
    seg.extents <- (offset, run) :: seg.extents
  end

let put_bytes t ~segment_id ~offset data =
  if offset mod Page.size <> 0 then
    invalid_arg "Segment_store.put_bytes: unaligned offset";
  let len = Bytes.length data in
  let n = (len + Page.size - 1) / Page.size in
  let seg = segment t segment_id in
  for i = 0 to n - 1 do
    let page = Page.zero () in
    let off = i * Page.size in
    Bytes.blit data off page 0 (min Page.size (len - off));
    Hashtbl.replace seg.pages (offset + (i * Page.size)) (Page.of_bytes page)
  done

let extent_find seg offset =
  let rec loop = function
    | [] -> None
    | (lo, vs) :: rest ->
        if lo <= offset && offset < lo + extent_bytes vs then
          Some (Page_run.get vs ((offset - lo) / Page.size))
        else loop rest
  in
  loop seg.extents

let get_page t ~segment_id ~offset =
  match Hashtbl.find_opt t segment_id with
  | None -> None
  | Some seg -> (
      match Hashtbl.find_opt seg.pages offset with
      | Some _ as v -> v
      | None -> extent_find seg offset)

let read_run t ~segment_id ~offset ~pages =
  assert (pages >= 1);
  let rec loop i acc =
    if i >= pages then List.rev acc
    else
      match get_page t ~segment_id ~offset:(offset + (i * Page.size)) with
      | None -> List.rev acc
      | Some value -> loop (i + 1) (value :: acc)
  in
  loop 0 []

let has_segment t ~segment_id = Hashtbl.mem t segment_id

let offsets t ~segment_id =
  match Hashtbl.find_opt t segment_id with
  | None -> [||]
  | Some seg ->
      let n =
        List.fold_left
          (fun acc (_, vs) -> acc + Page_run.length vs)
          (Hashtbl.length seg.pages) seg.extents
      in
      let all = Array.make n 0 and k = ref 0 in
      let add off =
        all.(!k) <- off;
        incr k
      in
      Hashtbl.iter (fun off _ -> add off) seg.pages;
      List.iter
        (fun (lo, vs) ->
          for i = 0 to Page_run.length vs - 1 do
            add (lo + (i * Page.size))
          done)
        seg.extents;
      Array.sort Int.compare all;
      (* an overlay page shadowing an extent slot is listed once *)
      let m = ref 0 in
      Array.iter
        (fun off ->
          if !m = 0 || all.(!m - 1) <> off then begin
            all.(!m) <- off;
            incr m
          end)
        all;
      Array.sub all 0 !m

(* Overlay pages that shadow an extent slot must not be double-counted. *)
let segment_pages t ~segment_id =
  match Hashtbl.find_opt t segment_id with
  | None -> 0
  | Some seg ->
      let in_extents =
        List.fold_left (fun acc (_, vs) -> acc + Page_run.length vs) 0 seg.extents
      in
      let overlay_only =
        Hashtbl.fold
          (fun offset _ acc ->
            if extent_find seg offset = None then acc + 1 else acc)
          seg.pages 0
      in
      in_extents + overlay_only

let segment_bytes t ~segment_id = segment_pages t ~segment_id * Page.size
let drop_segment t ~segment_id = Hashtbl.remove t segment_id
let segments t = Hashtbl.fold (fun id _ acc -> id :: acc) t [] |> List.sort Int.compare

let total_bytes t =
  Hashtbl.fold (fun id _ acc -> acc + segment_bytes t ~segment_id:id) t 0
