open Accent_mem
open Accent_ipc
open Accent_kernel
open Transfer_engine

type Message.payload +=
  | Mig_push_pages of { proc_id : int; round : int; src_port : Port.id }
  | Mig_push_ack of { proc_id : int; round : int }
  | Mig_push_final of { core : Context.core; handoff : handoff }

(* Which runs the rounds push and which the destination pulls: pre-copy
   pushes everything, hybrid only the recency window and leaves the cold
   tail as IOUs. *)
type push_set = All | Window of float

(* --- source side -------------------------------------------------------- *)

type push = {
  proc : Proc.t;
  dest : Port.id;
  push_set : push_set;
  max_rounds : int;
  threshold_pages : int;
  handoff : handoff;
  sent : Image_wire.Sent.t;  (** pages ever pushed; owned by the pool *)
}

type t = {
  ctx : ctx;
  outbound : (int, push) Hashtbl.t;
      (** source side of in-progress migrations, by proc id *)
  staged : (int, Segment_store.t) Hashtbl.t;
      (** destination side: pages staged by push rounds, by proc id; the
          inner store indexes pages by virtual address *)
  pool : Image_wire.Sent_pool.t;
}

let send_round ctx state ~round chunks =
  let proc_id = state.proc.Proc.id in
  emit ctx ~proc_id
    (Mig_event.Precopy_round { round; bytes = Memory_object.data_bytes chunks });
  Dedup.send ctx.dedup ~dest:state.dest ~proc_id ~memory:chunks
    ~build:(fun memory ->
      Message.make ~ids:(Host.ids ctx.host) ~dest:state.dest ~inline_bytes:64
        ~memory ~no_ious:true ~category:Message.Bulk
        (Mig_push_pages { proc_id; round; src_port = ctx.port }))

(* Read [pages] from the live space and push them as one round.  On
   Abort the migration is aborted; the cleanup subscription then clears
   the outbound entry and returns the sent set. *)
let push_pages ctx state ~round pages =
  match Image_wire.vaddr_data_chunks (Proc.space_exn state.proc) pages with
  | exception Abort reason ->
      abort_migration ctx ~proc_id:state.proc.Proc.id reason
  | chunks ->
      List.iter (Image_wire.Sent.mark_page state.sent) pages;
      send_round ctx state ~round chunks

(* Pre-copy's first round: every Real range whole, as shared views, with
   coverage recorded as O(ranges) bulk runs rather than one mark per
   page. *)
let push_all ctx state =
  match Image_wire.real_range_chunks (Proc.space_exn state.proc) with
  | exception Abort reason ->
      abort_migration ctx ~proc_id:state.proc.Proc.id reason
  | chunks ->
      List.iter
        (fun c ->
          Image_wire.Sent.mark_run state.sent
            ~first:(Page.index_of_addr c.Memory_object.range.Vaddr.lo)
            ~last:(Page.index_of_addr (c.Memory_object.range.Vaddr.hi - 1)))
        chunks;
      send_round ctx state ~round:1 chunks

(* The final message's Data chunks and cold-tail IOUs, read out of the
   captured image.  Pre-copy ships everything dirtied since the last round
   plus every real page no round ever pushed; hybrid ships only the dirty
   pages and banks the never-pushed ones as IOUs. *)
let residual ctx state image ~written =
  match state.push_set with
  | All ->
      (Image_wire.precopy_residual_chunks image ~sent:state.sent ~written, [])
  | Window _ ->
      let residual_chunks =
        Image_wire.image_data_chunks image
          ~missing:"pre-copy: page vanished mid-round" written
      in
      List.iter (Image_wire.Sent.mark_page state.sent) written;
      ( residual_chunks,
        Image_wire.cold_iou_chunks ctx.backing image ~sent:state.sent )

(* Freeze, capture the process image, derive the final message from it,
   dissolve the source incarnation, ship.  An Abort while building the
   residual aborts this one migration with the process intact. *)
let freeze ctx outbound pool state =
  let proc_id = state.proc.Proc.id in
  freeze_until_quiescent ctx state.proc ~k:(fun () ->
      let written = Proc.drain_written_log state.proc in
      let excised = Excise.capture ctx.host state.proc in
      let image = excised.Excise.image in
      match residual ctx state image ~written with
      | exception Abort reason -> abort_migration ctx ~proc_id reason
      | residual_chunks, cold_chunks ->
          emit ctx ~proc_id
            (Mig_event.Frozen
               { residual_bytes = Memory_object.data_bytes residual_chunks });
          Hashtbl.remove outbound proc_id;
          Image_wire.Sent_pool.give pool state.sent;
          Excise.dissolve ctx.host state.proc excised ~k:(fun excised ->
              emit ctx ~proc_id (Mig_event.Excised excised.Excise.timings);
              let memory =
                List.sort
                  (fun a b ->
                    Int.compare a.Memory_object.range.Vaddr.lo
                      b.Memory_object.range.Vaddr.lo)
                  (residual_chunks @ cold_chunks
                  @ Image_wire.iou_chunks_of_image image)
              in
              Memory_object.validate memory;
              let core = excised.Excise.core in
              Dedup.send ctx.dedup ~dest:state.dest ~proc_id ~memory
                ~build:(fun memory ->
                  Message.make ~ids:(Host.ids ctx.host) ~dest:state.dest
                    ~inline_bytes:
                      (Context.core_wire_bytes (Host.costs ctx.host) core)
                    ~rights:core.Context.port_rights ~memory ~no_ious:true
                    ~category:Message.Bulk
                    (Mig_push_final { core; handoff = state.handoff }))))

(* The round-pacing decision: freeze when the round budget is spent or the
   dirty log is small enough, else push the drained dirty log. *)
let handle_ack ctx outbound pool ~proc_id ~round =
  match Hashtbl.find_opt outbound proc_id with
  | None -> Logs.warn (fun m -> m "MigrationManager: stray push ack")
  | Some state ->
      let dirty = Hashtbl.length state.proc.Proc.written_log in
      if round >= state.max_rounds || dirty <= state.threshold_pages then
        freeze ctx outbound pool state
      else
        push_pages ctx state ~round:(round + 1)
          (Proc.drain_written_log state.proc)

let start t ~proc ~dest ~push_set ~max_rounds ~threshold_pages ~handoff =
  let ctx = t.ctx in
  (* the process keeps executing at the source while rounds proceed *)
  let state =
    {
      proc;
      dest;
      push_set;
      max_rounds;
      threshold_pages;
      handoff;
      sent = Image_wire.Sent_pool.take t.pool;
    }
  in
  Hashtbl.replace t.outbound proc.Proc.id state;
  match push_set with
  | All -> push_all ctx state
  | Window window_ms ->
      (* writes before the migration are plain source execution: the pages
         they touched ship with current values either in the window push
         or as cold IOUs, so reset dirty tracking to the rounds' epoch *)
      ignore (Proc.drain_written_log proc);
      push_pages ctx state ~round:1
        (Image_wire.shippable_ws_pages proc
           ~now:(Accent_sim.Engine.now (Host.engine ctx.host))
           ~window_ms)

(* --- destination side ---------------------------------------------------- *)

let staged_store staged proc_id =
  match Hashtbl.find_opt staged proc_id with
  | Some store -> store
  | None ->
      let store = Segment_store.create () in
      Hashtbl.replace staged proc_id store;
      store

(* File every Data chunk's pages into the store, keyed by virtual
   address.  Digest chunks are resolved to Data before staging; an
   unresolved one carries no bytes to stage. *)
let stage_chunks store ~proc_id memory =
  List.iter
    (fun chunk ->
      match chunk.Memory_object.content with
      | Memory_object.Data run ->
          let lo = chunk.Memory_object.range.Vaddr.lo in
          Page_run.iteri
            (fun i value ->
              Segment_store.put_page store ~segment_id:proc_id
                ~offset:(lo + (i * Page.size))
                value)
            run
      | Memory_object.Iou _ | Memory_object.Digest_refs _ -> ())
    memory

let handle_pages ctx staged ~proc_id ~round ~src_port memory =
  match Dedup.resolve ctx.dedup ~proc_id memory with
  | exception Dedup.Unresolvable reason -> abort_migration ctx ~proc_id reason
  | memory ->
      stage_chunks (staged_store staged proc_id) ~proc_id memory;
      Kernel_ipc.send (Host.kernel ctx.host)
        (Message.make ~ids:(Host.ids ctx.host) ~dest:src_port ~inline_bytes:32
           (Mig_push_ack { proc_id; round }))

(* Account Core and RIMAS delivery, resolve digests, stage the residual,
   assemble the insertion RIMAS and hand it to the manager; any failure
   aborts the migration and clears its staged pages. *)
let handle_final ctx staged ~core ~handoff memory =
  let proc_id = core.Context.proc_id in
  emit ctx ~proc_id Mig_event.Core_delivered;
  (* the residual is the RIMAS data this final message physically carries;
     the staged rounds were accounted per round *)
  emit ctx ~proc_id
    (Mig_event.Rimas_delivered { data_bytes = Memory_object.data_bytes memory });
  match Dedup.resolve ctx.dedup ~proc_id memory with
  | exception Dedup.Unresolvable reason ->
      Hashtbl.remove staged proc_id;
      abort_migration ctx ~proc_id reason
  | memory -> (
      let store = staged_store staged proc_id in
      stage_chunks store ~proc_id memory;
      let iou_chunks =
        List.filter
          (fun c ->
            match c.Memory_object.content with
            | Memory_object.Iou _ -> true
            | Memory_object.Data _ | Memory_object.Digest_refs _ -> false)
          memory
      in
      match
        Image_wire.assemble store ~proc_id ~amap:core.Context.amap ~iou_chunks
      with
      | exception Abort reason ->
          Hashtbl.remove staged proc_id;
          abort_migration ctx ~proc_id reason
      | rimas ->
          Hashtbl.remove staged proc_id;
          ctx.insert ~core ~rimas handoff)

(* --- the engine --------------------------------------------------------- *)

let create ctx =
  let t =
    {
      ctx;
      outbound = Hashtbl.create 4;
      staged = Hashtbl.create 4;
      pool = Image_wire.Sent_pool.create ();
    }
  in
  (* An abandoned migration never sees Mig_push_final, the only normal exit
     for both tables: drop its state when the transport gives up on it (or
     the engine itself aborts it), or the staged pages of every failed
     migration stay resident forever. *)
  Mig_event.subscribe_cleanup ctx.bus (fun ev ->
      match ev.Mig_event.kind with
      | Mig_event.Transport_give_up | Mig_event.Engine_abort _ ->
          (match Hashtbl.find_opt t.outbound ev.Mig_event.proc_id with
          | Some state -> Image_wire.Sent_pool.give t.pool state.sent
          | None -> ());
          Hashtbl.remove t.outbound ev.Mig_event.proc_id;
          Hashtbl.remove t.staged ev.Mig_event.proc_id
      | _ -> ());
  t

let handle t msg =
  let memory = Option.value msg.Message.memory ~default:[] in
  match msg.Message.payload with
  | Mig_push_pages { proc_id; round; src_port } ->
      handle_pages t.ctx t.staged ~proc_id ~round ~src_port memory;
      true
  | Mig_push_ack { proc_id; round } ->
      handle_ack t.ctx t.outbound t.pool ~proc_id ~round;
      true
  | Mig_push_final { core; handoff } ->
      handle_final t.ctx t.staged ~core ~handoff memory;
      true
  | _ -> false

let give_up_proc = function
  | Mig_push_pages { proc_id; _ } -> Some proc_id
  | Mig_push_final { core; _ } -> Some core.Context.proc_id
  (* a lost ack only delays the next round decision; the migration can
     still proceed when the transport gives up on it *)
  | _ -> None

let debug_stats t =
  [ ("outbound", Hashtbl.length t.outbound); ("staged", Hashtbl.length t.staged) ]
