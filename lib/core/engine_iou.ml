open Accent_sim
open Accent_mem
open Accent_ipc
open Accent_kernel
open Transfer_engine

(* --- resident-set RIMAS preparation ------------------------------------ *)

(* The kept pages become sorted, maximal closed runs of collapsed page
   indices once; each Data chunk is then sliced against them — kept
   slices stay Data, every other slice is banked whole on the manager's
   backing server and travels as an IOU.  Work past mapping the keep
   pages is O(chunks × log runs + pieces): no per-page table, value list
   or store insert. *)
let partial_rimas ctx (excised : Excise.excised) ~keep_pages =
  let keep =
    Array.of_list
      (Image_wire.page_runs_of_pages
         (List.filter_map
            (fun page ->
              Option.map Page.index_of_addr
                (Context.collapsed_of_vaddr excised.Excise.layout
                   (Page.addr_of_index page)))
            keep_pages))
  in
  let segment_id = Backing_server.new_segment ctx.backing in
  let backing_port = Backing_server.port ctx.backing in
  let slice_chunk (chunk : Memory_object.chunk) run =
    let chunk_first =
      Page.index_of_addr chunk.Memory_object.range.Vaddr.lo
    in
    let last = chunk_first + Page_run.length run - 1 in
    let rev_pieces = ref [] in
    let piece ~kept first last =
      let lo = Page.addr_of_index first in
      let slice =
        Page_run.sub run ~pos:(first - chunk_first) ~len:(last - first + 1)
      in
      let content =
        if kept then Memory_object.Data slice
        else begin
          Backing_server.put_extent ctx.backing ~segment_id ~offset:lo slice;
          Memory_object.Iou { segment_id; backing_port; offset = lo }
        end
      in
      let hi = Page.addr_of_index last + Page.size in
      rev_pieces := { Memory_object.range = Vaddr.range lo hi; content }
        :: !rev_pieces
    in
    (* first keep run that ends at or after the chunk's first page *)
    let lo = ref 0 and hi = ref (Array.length keep) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if snd keep.(mid) < chunk_first then lo := mid + 1 else hi := mid
    done;
    let pos = ref chunk_first and i = ref !lo in
    while !i < Array.length keep && fst keep.(!i) <= last do
      let a = max (fst keep.(!i)) !pos and b = min (snd keep.(!i)) last in
      if a > !pos then piece ~kept:false !pos (a - 1);
      piece ~kept:true a b;
      pos := b + 1;
      incr i
    done;
    if !pos <= last then piece ~kept:false !pos last;
    List.rev !rev_pieces
  in
  List.concat_map
    (fun chunk ->
      match chunk.Memory_object.content with
      | Memory_object.Iou _ | Memory_object.Digest_refs _ -> [ chunk ]
      | Memory_object.Data run -> slice_chunk chunk run)
    excised.Excise.rimas

(* --- source side -------------------------------------------------------- *)

(* Only pages that actually carry data can be shipped physically. *)
let shippable_ws_pages ctx proc ~window_ms =
  Working_set.pages_within proc.Proc.working_set
    ~time:(Engine.now (Host.engine ctx.host))
    ~window:(Time.ms window_ms)
  |> List.filter (fun page ->
         match Address_space.presence_of_page (Proc.space_exn proc) page with
         | Address_space.Resident _ | Address_space.Paged_out _ -> true
         | Address_space.Zero_pending | Address_space.Imaginary_pending _
         | Address_space.Invalid ->
             false)

let start ctx ~proc ~dest ~strategy ~report ~on_complete ~on_restart =
  freeze_until_quiescent ctx proc ~k:(fun () ->
      (* the working set must be read before excision dismantles the space *)
      let ws_pages =
        match strategy.Strategy.transfer with
        | Strategy.Working_set { window_ms } ->
            shippable_ws_pages ctx proc ~window_ms
        | _ -> []
      in
      Excise.excise ctx.host proc ~k:(fun excised ->
          emit ctx ~proc_id:excised.Excise.core.Context.proc_id
            (Mig_event.Excised excised.Excise.timings);
          let rimas, no_ious =
            match strategy.Strategy.transfer with
            | Strategy.Pure_iou -> (excised.Excise.rimas, false)
            | Strategy.Resident_set ->
                ( partial_rimas ctx excised ~keep_pages:excised.Excise.resident,
                  true )
            | Strategy.Working_set _ ->
                (partial_rimas ctx excised ~keep_pages:ws_pages, true)
            | Strategy.Pure_copy | Strategy.Pre_copy _ | Strategy.Hybrid _ ->
                assert false (* other engines claim these *)
          in
          Engine_copy.send_context ctx ~dest ~excised ~rimas ~no_ious
            ~prefetch:strategy.Strategy.prefetch ~report ~on_complete
            ~on_restart))

let create ctx =
  {
    name = "iou";
    claims =
      (function
      | Strategy.Pure_iou | Strategy.Resident_set | Strategy.Working_set _ ->
          true
      | Strategy.Pure_copy | Strategy.Pre_copy _ | Strategy.Hybrid _ -> false);
    start = start ctx;
    (* the classic wire protocol is Engine_copy's; nothing arrives that is
       specifically ours *)
    handle = (fun _ -> false);
    give_up_proc = (fun _ -> None);
    debug_stats = (fun () -> []);
  }
