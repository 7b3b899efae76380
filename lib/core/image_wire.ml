open Accent_mem
open Accent_ipc
open Accent_kernel

exception Abort of string

(* --- data chunks ---------------------------------------------------------- *)

(* Sorted, deduplicated pages coalesced into maximal closed page runs. *)
let page_runs_of_pages pages =
  let pages = List.sort_uniq Int.compare pages in
  List.fold_left
    (fun acc page ->
      match acc with
      | (lo, hi) :: rest when page = hi + 1 -> (lo, page) :: rest
      | _ -> (page, page) :: acc)
    [] pages
  |> List.rev

let data_chunks ~lookup ~missing pages =
  List.map
    (fun (first, last) ->
      let run =
        Page_run.init
          (last - first + 1)
          (fun i ->
            match lookup (first + i) with
            | Some value -> value
            | None -> raise (Abort missing))
      in
      {
        Memory_object.range =
          Vaddr.range (Page.addr_of_index first)
            (Page.addr_of_index last + Page.size);
        content = Memory_object.Data run;
      })
    (page_runs_of_pages pages)

let vaddr_data_chunks space pages =
  data_chunks
    ~lookup:(Address_space.page_value space)
    ~missing:"pre-copy: page vanished mid-round" pages

let image_data_chunks image ~missing pages =
  data_chunks ~lookup:(Proc_image.find_value image) ~missing pages

(* Only pages that actually carry data can be shipped physically. *)
let shippable_ws_pages proc ~now ~window_ms =
  Working_set.pages_within proc.Proc.working_set ~time:now
    ~window:(Accent_sim.Time.ms window_ms)
  |> List.filter (fun page ->
         match Address_space.presence_of_page (Proc.space_exn proc) page with
         | Address_space.Resident _ | Address_space.Paged_out -> true
         | Address_space.Zero_pending | Address_space.Imaginary_pending _
         | Address_space.Invalid ->
             false)

(* One Data chunk per Real range of the live space, each carrying the
   range's values as one shared view — what a pre-copy first round ships.
   O(cold parts + materialised pages), with no page list, no page array
   and no value ever copied. *)
let real_range_chunks space =
  match Address_space.real_runs space with
  | exception Failure _ -> raise (Abort "pre-copy: page vanished mid-round")
  | runs ->
      List.map
        (fun (lo, run) ->
          {
            Memory_object.range =
              Vaddr.of_len lo (Page_run.length run * Page.size);
            content = Memory_object.Data run;
          })
        runs

(* Closed page runs of the image's real memory that no round ever pushed —
   the gaps the sent set leaves in each real range, the run-subtraction
   core of both the hybrid cold tail and the pre-copy residual. *)
let unsent_runs (image : Proc_image.t) ~sent =
  List.concat_map
    (fun (lo, hi) ->
      Interval_map.fold_pieces sent ~lo:(Page.index_of_addr lo)
        ~hi:(Page.index_of_addr (hi - 1) + 1)
        ~init:[]
        ~f:(fun acc a b -> function None -> (a, b - 1) :: acc | Some () -> acc)
      |> List.rev)
    (Proc_image.real_ranges image)

(* --- IOU chunks ----------------------------------------------------------- *)

(* The image's imaginary runs as vaddr-coordinate IOU chunks: pre-existing
   ImagMem (e.g. on a second migration) that the final message must carry
   alongside the residual data. *)
let iou_chunks_of_image (image : Proc_image.t) =
  List.filter_map
    (fun (run : Address_space.image_run) ->
      match run with
      | Address_space.Img_zero _ | Address_space.Img_real _ -> None
      | Address_space.Img_imag { lo; hi; segment_id; offset } ->
          Some
            {
              Memory_object.range = Vaddr.range lo hi;
              content =
                Memory_object.Iou
                  {
                    segment_id;
                    backing_port = Proc_image.backing_port_exn image ~segment_id;
                    offset;
                  };
            })
    image.Proc_image.mem

(* Everything real that no round ever pushed and the freeze did not catch
   dirty becomes the cold tail: its values move into the manager's backing
   server (keyed by virtual address) and the final message carries IOUs
   for the destination to pull on reference.  The cold runs are the gaps
   the sent set leaves in the image's real ranges, and each run's values
   are banked as one adopted extent — never a per-page lookup and insert,
   which would make every hybrid freeze O(space). *)
let cold_iou_chunks backing (image : Proc_image.t) ~sent =
  match unsent_runs image ~sent with
  | [] -> []
  | runs ->
      let segment_id = Accent_net.Backing_server.new_segment backing in
      List.map
        (fun (first, last) ->
          let lo = Page.addr_of_index first
          and hi = Page.addr_of_index last + Page.size in
          let run =
            try Proc_image.range_run image ~lo ~hi
            with Failure _ ->
              raise (Abort "hybrid: cold page vanished at freeze")
          in
          {
            Memory_object.range = Vaddr.range lo hi;
            content =
              Accent_net.Backing_server.bank backing ~segment_id ~offset:lo run;
          })
        runs

(* The pre-copy residual: everything dirtied since the last round plus
   every real page no round ever pushed — the unsent runs and the (small)
   dirty log merged into one page set, each maximal run read out of the
   image as one shared view.  Never a per-page probe of the image, whose
   cost and allocation would be O(space) per freeze. *)
let precopy_residual_chunks (image : Proc_image.t) ~sent ~written =
  let set = Interval_map.create () in
  List.iter
    (fun (first, last) -> Interval_map.set set ~lo:first ~hi:(last + 1) ())
    (List.rev_append
       (List.map (fun p -> (p, p)) written)
       (unsent_runs image ~sent));
  Interval_map.ranges set
  |> List.map (fun (first, stop, ()) ->
         let lo = Page.addr_of_index first and hi = Page.addr_of_index stop in
         let run =
           try Proc_image.range_run image ~lo ~hi
           with Failure _ ->
             raise (Abort "pre-copy: page vanished mid-round")
         in
         {
           Memory_object.range = Vaddr.range lo hi;
           content = Memory_object.Data run;
         })

(* --- destination side: RIMAS assembly ------------------------------------- *)

(* The insertion RIMAS from the staged pages: they become Data runs,
   everything else must be covered by an IOU chunk of the final message —
   a push cold tail or a pre-existing imaginary region.  Under pre-copy
   every real page is staged, so each Real range comes out as one Data
   chunk and a page that never arrived aborts the migration. *)
let assemble staged ~amap ~iou_chunks =
  let cursor = ref 0 and rev_chunks = ref [] in
  let emit_chunk len content =
    rev_chunks :=
      { Memory_object.range = Vaddr.range !cursor (!cursor + len); content }
      :: !rev_chunks;
    cursor := !cursor + len
  in
  (* Cover [lo, hi) out of the final message's IOU chunks, splitting on
     chunk boundaries: one map keyed by address, never coalesced, so each
     piece it yields is one chunk's share of the range. *)
  let ious = Interval_map.create ~equal:(fun _ _ -> false) () in
  List.iter
    (fun (c : Memory_object.chunk) ->
      Interval_map.set ious ~lo:c.range.Vaddr.lo ~hi:c.range.Vaddr.hi c)
    iou_chunks;
  let emit_iou_cover ~lo ~hi =
    Interval_map.fold_pieces ious ~lo ~hi ~init:() ~f:(fun () a b -> function
      | None -> raise (Abort "push: page neither staged nor IOU-backed")
      | Some (chunk : Memory_object.chunk) -> (
          match chunk.content with
          | Memory_object.Iou { segment_id; backing_port; offset } ->
              emit_chunk (b - a)
                (Memory_object.Iou
                   {
                     segment_id;
                     backing_port;
                     offset = offset + a - chunk.range.Vaddr.lo;
                   })
          | Memory_object.Data _ | Memory_object.Digest_refs _ ->
              assert false))
  in
  let emit_data first last =
    let run =
      Page_run.init (last - first + 1) (fun i ->
          Accent_util.Int_tbl.find staged (first + i))
    in
    emit_chunk ((last - first + 1) * Page.size) (Memory_object.Data run)
  in
  (* The staged pages, ascending, and the next one not yet walked.  AMap
     ranges are ascending and disjoint, so one pass over them walks the
     staged pages once: assembly visits the staged pages and the gaps
     between them, never every page of a range. *)
  let pages = Array.make (Accent_util.Int_tbl.length staged) 0 and n = ref 0 in
  Accent_util.Int_tbl.iter
    (fun page _ ->
      pages.(!n) <- page;
      incr n)
    staged;
  Array.sort Int.compare pages;
  let next = ref 0 in
  let peek () = if !next < Array.length pages then pages.(!next) else max_int in
  let rec walk pos ~last =
    let s = peek () in
    if s <= last then begin
      if s > pos then
        emit_iou_cover ~lo:(Page.addr_of_index pos)
          ~hi:(Page.addr_of_index s);
      incr next;
      let e = ref s in
      while peek () = !e + 1 && !e + 1 <= last do
        incr e;
        incr next
      done;
      emit_data s !e;
      walk (!e + 1) ~last
    end
    else if pos <= last then
      emit_iou_cover ~lo:(Page.addr_of_index pos)
        ~hi:(Page.addr_of_index last + Page.size)
  in
  List.iter
    (fun (lo, hi, cls) ->
      match (cls : Accessibility.t) with
      | Real_zero_mem | Bad_mem -> ()
      | Real_mem | Imag_mem ->
          let first = Page.index_of_addr lo in
          while peek () < first do
            incr next
          done;
          walk first ~last:(Page.index_of_addr (hi - 1)))
    (Amap.ranges amap);
  List.rev !rev_chunks
