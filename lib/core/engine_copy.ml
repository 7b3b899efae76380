open Accent_sim
open Accent_mem
open Accent_ipc
open Accent_kernel
open Transfer_engine

type Message.payload +=
  | Mig_core of { core : Context.core; handoff : handoff }
  | Mig_rimas of { proc_id : int }

type rimas = Whole of { no_ious : bool } | Keep_resident | Keep_window of float

(* The two context messages may arrive in either order. *)
type partial = {
  mutable arrived_core : (Context.core * handoff) option;
  mutable arrived_rimas : Memory_object.t option;
}

type t = { ctx : ctx; pending : (int, partial) Hashtbl.t }

(* --- resident-set RIMAS preparation ------------------------------------ *)

(* The kept pages become sorted, maximal closed runs of collapsed page
   indices once; each Data chunk is then sliced against them — kept
   slices stay Data, every other slice is banked whole on the manager's
   backing server and travels as an IOU.  Work past mapping the keep
   pages is O(chunks × log runs + pieces): no per-page table, value list
   or store insert. *)
let partial_rimas backing (excised : Excise.excised) ~keep_pages =
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
  let segment_id = Backing_server.new_segment backing in
  let backing_port = Backing_server.port backing in
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
          Backing_server.put_extent backing ~segment_id ~offset:lo slice;
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

(* RIMAS first: under the lazy strategies it is one small fragment and the
   relocated process cannot restart until it lands, so it should not queue
   behind the Core's AMap fragments. *)
let send_context ctx ~dest ~(excised : Excise.excised) ~rimas ~no_ious ~handoff
    =
  let ids = Host.ids ctx.host in
  let core = excised.Excise.core in
  let core_msg =
    Message.make ~ids ~dest
      ~inline_bytes:(Context.core_wire_bytes (Host.costs ctx.host) core)
      ~rights:core.Context.port_rights
      (Mig_core { core; handoff })
  in
  let proc_id = core.Context.proc_id in
  Dedup.send ctx.dedup ~dest ~proc_id ~memory:rimas
    ~build:(fun memory ->
      Message.make ~ids ~dest ~inline_bytes:64 ~memory ~no_ious
        ~category:Message.Bulk (Mig_rimas { proc_id }));
  Kernel_ipc.send (Host.kernel ctx.host) core_msg

let start t ~proc ~dest ~rimas ~handoff =
  let ctx = t.ctx in
  freeze_until_quiescent ctx proc ~k:(fun () ->
      (* the working set must be read before excision dismantles the space *)
      let ws_pages =
        match rimas with
        | Keep_window window_ms ->
            Image_wire.shippable_ws_pages proc
              ~now:(Engine.now (Host.engine ctx.host))
              ~window_ms
        | Whole _ | Keep_resident -> []
      in
      Excise.excise ctx.host proc ~k:(fun excised ->
          emit ctx ~proc_id:excised.Excise.core.Context.proc_id
            (Mig_event.Excised excised.Excise.timings);
          let memory, no_ious =
            match rimas with
            | Whole { no_ious } -> (excised.Excise.rimas, no_ious)
            | Keep_resident ->
                ( partial_rimas ctx.backing excised
                    ~keep_pages:excised.Excise.resident,
                  true )
            | Keep_window _ ->
                (partial_rimas ctx.backing excised ~keep_pages:ws_pages, true)
          in
          send_context ctx ~dest ~excised ~rimas:memory ~no_ious ~handoff))

(* --- destination side ---------------------------------------------------- *)

let create ctx =
  let pending : (int, partial) Hashtbl.t = Hashtbl.create 4 in
  (* If the transport abandons one half of the Core/RIMAS pair, the other
     half's partial entry can never complete: drop it. *)
  Mig_event.subscribe_cleanup ctx.bus (fun ev ->
      match ev.Mig_event.kind with
      | Mig_event.Transport_give_up | Mig_event.Engine_abort _ ->
          Hashtbl.remove pending ev.Mig_event.proc_id
      | _ -> ());
  { ctx; pending }

let partial_for t proc_id =
  match Hashtbl.find_opt t.pending proc_id with
  | Some p -> p
  | None ->
      let p = { arrived_core = None; arrived_rimas = None } in
      Hashtbl.replace t.pending proc_id p;
      p

(* Once both context messages are in hand, hand the assembled context to
   the manager for insertion. *)
let maybe_insert t proc_id partial =
  match (partial.arrived_core, partial.arrived_rimas) with
  | Some (core, handoff), Some rimas ->
      Hashtbl.remove t.pending proc_id;
      t.ctx.insert ~core ~rimas handoff
  | _ -> ()

let handle t msg =
  let ctx = t.ctx in
  match msg.Message.payload with
  | Mig_core { core; handoff } ->
      let proc_id = core.Context.proc_id in
      emit ctx ~proc_id Mig_event.Core_delivered;
      let partial = partial_for t proc_id in
      partial.arrived_core <- Some (core, handoff);
      maybe_insert t proc_id partial;
      true
  | Mig_rimas { proc_id } ->
      let rimas = Option.value msg.Message.memory ~default:[] in
      (* wire accounting first: data_bytes of the pruned object *)
      emit ctx ~proc_id
        (Mig_event.Rimas_delivered
           { data_bytes = Memory_object.data_bytes rimas });
      (match Dedup.resolve ctx.dedup ~proc_id rimas with
      | rimas ->
          let partial = partial_for t proc_id in
          partial.arrived_rimas <- Some rimas;
          maybe_insert t proc_id partial
      | exception Dedup.Unresolvable reason ->
          abort_migration ctx ~proc_id reason);
      true
  | _ -> false

let give_up_proc = function
  | Mig_core { core; _ } -> Some core.Context.proc_id
  | Mig_rimas { proc_id } -> Some proc_id
  | _ -> None

let debug_stats t = [ ("pending", Hashtbl.length t.pending) ]
