open Accent_sim
open Accent_mem
open Accent_ipc
open Accent_kernel
module Int_tbl = Accent_util.Int_tbl

type handoff = {
  report : Report.t;
  prefetch : int;
  on_complete : (Proc.t -> Report.t -> unit) option;
  on_restart : (Proc.t -> unit) option;
}

type Message.payload +=
  | Mig_core of { core : Context.core; handoff : handoff }
  | Mig_rimas of { proc_id : int }
  | Mig_push_pages of { proc_id : int; round : int; src_port : Port.id }
  | Mig_push_ack of { proc_id : int; round : int }
  | Mig_push_final of { core : Context.core; handoff : handoff }

type ctx = {
  host : Host.t;
  port : Port.id;
  backing : Accent_net.Backing_server.t;
  bus : Mig_event.bus;
  dedup : Dedup.t;
}

(* Source side of a push migration, from its first round to the freeze. *)
type push = {
  proc : Proc.t;
  dest : Port.id;
  handoff : handoff;
  window : float option;
      (** hybrid's recency window; [None] for pre-copy, which pushes every
          real page and leaves nothing to pull *)
  max_rounds : int;
  threshold_pages : int;
  sent : unit Interval_map.t;  (** page indices ever pushed *)
}

(* What the final leg carries.  The classic four are the zero-round case:
   the Core and the RIMAS as two concurrent messages, the RIMAS keeping
   every page physical, only the resident set, or only the pages
   referenced within a window (the rest become IOUs on the manager's
   backing server).  A push migration ships its residual as one final
   message. *)
type leg =
  | Whole of { no_ious : bool }
  | Keep_resident
  | Keep_window of float
  | Residual of push

(* Destination side of one migration: the classic pair may arrive in
   either order; push rounds stage their pages here, keyed by page index,
   until the final message brings the Core and the RIMAS together. *)
type inbound = {
  mutable core : (Context.core * handoff) option;
  mutable rimas : Memory_object.t option;  (** collapsed coordinates *)
  mutable staged : Page.value Int_tbl.t option;
}

type t = {
  ctx : ctx;
  outbound : (int, push) Hashtbl.t;  (** by proc id *)
  inbound : (int, inbound) Hashtbl.t;  (** by proc id *)
}

let emit ctx ~proc_id kind =
  Mig_event.publish ctx.bus
    { Mig_event.at = Engine.now (Host.engine ctx.host); proc_id; kind }

let abort_migration ctx ~proc_id reason =
  Logs.warn (fun m ->
      m "MigrationManager: aborting migration of proc %d (%s)" proc_id reason);
  emit ctx ~proc_id (Mig_event.Engine_abort { reason })

(* --- resident-set RIMAS preparation ------------------------------------- *)

(* The kept pages become one map of collapsed page runs; each Data chunk
   is then split against it — kept pieces stay Data, every gap is banked
   whole on the manager's backing server and travels as an IOU.  Work
   past mapping the keep pages is O(chunks × log kept runs + pieces): no
   per-page table, value list or store insert. *)
let partial_rimas backing (excised : Excise.excised) ~keep_pages =
  let keep = Interval_map.create () in
  List.iter
    (fun (first, last) -> Interval_map.set keep ~lo:first ~hi:(last + 1) ())
    (Image_wire.page_runs_of_pages
       (List.filter_map
          (fun page ->
            Option.map Page.index_of_addr
              (Context.collapsed_of_vaddr excised.Excise.layout
                 (Page.addr_of_index page)))
          keep_pages));
  let segment_id = Accent_net.Backing_server.new_segment backing in
  let split_chunk (chunk : Memory_object.chunk) run =
    let first = Page.index_of_addr chunk.range.Vaddr.lo in
    Interval_map.fold_pieces keep ~lo:first ~hi:(first + Page_run.length run)
      ~init:[] ~f:(fun rev_pieces a b kept ->
        let lo = Page.addr_of_index a in
        let slice = Page_run.sub run ~pos:(a - first) ~len:(b - a) in
        let content =
          match kept with
          | Some () -> Memory_object.Data slice
          | None ->
              Accent_net.Backing_server.bank backing ~segment_id ~offset:lo
                slice
        in
        { Memory_object.range = Vaddr.range lo (Page.addr_of_index b); content }
        :: rev_pieces)
    |> List.rev
  in
  List.concat_map
    (fun chunk ->
      match chunk.Memory_object.content with
      | Memory_object.Iou _ | Memory_object.Digest_refs _ -> [ chunk ]
      | Memory_object.Data run -> split_chunk chunk run)
    excised.Excise.rimas

(* --- source side: the final leg ----------------------------------------- *)

(* RIMAS first: under the lazy strategies it is one small fragment and the
   relocated process cannot restart until it lands, so it should not queue
   behind the Core's AMap fragments. *)
let send_pair ctx ~dest ~handoff ~no_ious ~rimas (excised : Excise.excised) =
  let ids = Host.ids ctx.host in
  let core = excised.Excise.core in
  let core_msg =
    Message.make ~ids ~dest
      ~inline_bytes:(Context.core_wire_bytes core)
      ~rights:core.Context.port_rights
      (Mig_core { core; handoff })
  in
  let proc_id = core.Context.proc_id in
  Dedup.send ctx.dedup ~dest ~proc_id ~memory:rimas
    ~build:(fun memory ->
      Message.make ~ids ~dest ~inline_bytes:64 ~memory ~no_ious
        ~category:Message.Bulk (Mig_rimas { proc_id }));
  Kernel_ipc.send (Host.kernel ctx.host) core_msg

(* The push final: residual Data, cold-tail IOUs and any pre-existing
   imaginary regions, in vaddr coordinates, with the Core inline. *)
let send_final ctx ~dest ~handoff ~image chunks (excised : Excise.excised) =
  let memory =
    List.sort
      (fun a b ->
        Int.compare a.Memory_object.range.Vaddr.lo
          b.Memory_object.range.Vaddr.lo)
      (chunks @ Image_wire.iou_chunks_of_image image)
  in
  Memory_object.validate memory;
  let core = excised.Excise.core in
  Dedup.send ctx.dedup ~dest ~proc_id:core.Context.proc_id ~memory
    ~build:(fun memory ->
      Message.make ~ids:(Host.ids ctx.host) ~dest
        ~inline_bytes:(Context.core_wire_bytes core)
        ~rights:core.Context.port_rights ~memory ~no_ious:true
        ~category:Message.Bulk
        (Mig_push_final { core; handoff }))

(* Record every page the (vaddr-coordinate) chunks carry as pushed: one
   run per chunk, never one mark per page. *)
let mark_sent push chunks =
  List.iter
    (fun (c : Memory_object.chunk) ->
      Interval_map.set push.sent
        ~lo:(Page.index_of_addr c.range.Vaddr.lo)
        ~hi:(Page.index_of_addr c.range.Vaddr.hi)
        ())
    chunks

(* The push residual's Data chunks and cold-tail IOUs, read out of the
   captured image.  Pre-copy ships everything dirtied since the last round
   plus every real page no round ever pushed; hybrid ships only the dirty
   pages and banks the never-pushed ones as IOUs. *)
let residual ctx push image ~written =
  match push.window with
  | None ->
      (Image_wire.precopy_residual_chunks image ~sent:push.sent ~written, [])
  | Some _ ->
      let residual_chunks =
        Image_wire.image_data_chunks image
          ~missing:"pre-copy: page vanished mid-round" written
      in
      mark_sent push residual_chunks;
      ( residual_chunks,
        Image_wire.cold_iou_chunks ctx.backing image ~sent:push.sent )

(* The sender of [leg], derived from the capture before the source
   incarnation dissolves.  A classic RIMAS is prepared in the sender,
   after the trap's delay; a push residual is computed here and emits
   [Frozen], so an Abort leaves the process intact.  [live_pages] is what
   the leg read from the live process before capture: the working set,
   or a push's drained dirty log. *)
let final_leg t ~dest ~handoff leg ~live_pages (captured : Excise.excised) =
  let ctx = t.ctx in
  let pair ?(no_ious = true) rimas excised =
    send_pair ctx ~dest ~handoff ~no_ious ~rimas:(rimas excised) excised
  in
  let keep pages excised =
    partial_rimas ctx.backing excised ~keep_pages:pages
  in
  match leg with
  | Whole { no_ious } -> pair ~no_ious (fun excised -> excised.Excise.rimas)
  | Keep_resident ->
      pair (fun excised -> keep excised.Excise.resident excised)
  | Keep_window _ -> pair (keep live_pages)
  | Residual push ->
      let proc_id = push.proc.Proc.id and image = captured.Excise.image in
      let residual_chunks, cold_chunks =
        residual ctx push image ~written:live_pages
      in
      emit ctx ~proc_id
        (Mig_event.Frozen
           { residual_bytes = Memory_object.data_bytes residual_chunks });
      Hashtbl.remove t.outbound proc_id;
      send_final ctx ~dest ~handoff ~image (residual_chunks @ cold_chunks)

(* The one freeze path: wait out any in-flight fault (ExciseProcess
   refuses a process mid-fault), read what the leg needs from the live
   space, capture, derive the leg, dissolve the source incarnation, and
   send once the trap's cost has elapsed. *)
let freeze t ~proc ~dest ~handoff leg =
  let ctx = t.ctx and proc_id = proc.Proc.id in
  let engine = Host.engine ctx.host in
  let frozen () =
    let live_pages =
      match leg with
      | Keep_window window_ms ->
          Image_wire.shippable_ws_pages proc ~now:(Engine.now engine)
            ~window_ms
      | Residual _ -> Proc.drain_written_log proc
      | Whole _ | Keep_resident -> []
    in
    let captured = Excise.capture ctx.host proc in
    match final_leg t ~dest ~handoff leg ~live_pages captured with
    | exception Image_wire.Abort reason -> abort_migration ctx ~proc_id reason
    | send ->
        Excise.dissolve ctx.host proc captured ~k:(fun excised ->
            emit ctx ~proc_id (Mig_event.Excised excised.Excise.timings);
            send excised)
  in
  Proc_runner.interrupt proc;
  let rec once_quiescent () =
    if proc.Proc.in_flight then
      ignore (Engine.schedule engine ~delay:(Time.ms 2.) once_quiescent)
    else frozen ()
  in
  once_quiescent ()

(* --- source side: push rounds ------------------------------------------- *)

let send_round ctx push ~round chunks =
  let proc_id = push.proc.Proc.id in
  emit ctx ~proc_id
    (Mig_event.Precopy_round { round; bytes = Memory_object.data_bytes chunks });
  Dedup.send ctx.dedup ~dest:push.dest ~proc_id ~memory:chunks
    ~build:(fun memory ->
      Message.make ~ids:(Host.ids ctx.host) ~dest:push.dest ~inline_bytes:64
        ~memory ~no_ious:true ~category:Message.Bulk
        (Mig_push_pages { proc_id; round; src_port = ctx.port }))

(* Read [pages] from the live space and push them as one round.  On
   Abort the migration is aborted; the cleanup subscription then clears
   the outbound entry and returns the sent set. *)
let push_pages ctx push ~round pages =
  match Image_wire.vaddr_data_chunks (Proc.space_exn push.proc) pages with
  | exception Image_wire.Abort reason ->
      abort_migration ctx ~proc_id:push.proc.Proc.id reason
  | chunks ->
      mark_sent push chunks;
      send_round ctx push ~round chunks

(* Pre-copy's first round: every Real range whole, as shared views, with
   coverage recorded as O(ranges) bulk runs rather than one mark per
   page. *)
let push_all ctx push =
  match Image_wire.real_range_chunks (Proc.space_exn push.proc) with
  | exception Image_wire.Abort reason ->
      abort_migration ctx ~proc_id:push.proc.Proc.id reason
  | chunks ->
      mark_sent push chunks;
      send_round ctx push ~round:1 chunks

(* The process keeps executing at the source while rounds proceed. *)
let start_push t ~proc ~dest ~handoff ~window ~max_rounds ~threshold_pages =
  let ctx = t.ctx in
  let push =
    {
      proc;
      dest;
      handoff;
      window;
      max_rounds;
      threshold_pages;
      sent = Interval_map.create ();
    }
  in
  Hashtbl.replace t.outbound proc.Proc.id push;
  match window with
  | None -> push_all ctx push
  | Some window_ms ->
      (* writes before the migration are plain source execution: the pages
         they touched ship with current values either in the window push
         or as cold IOUs, so reset dirty tracking to the rounds' epoch *)
      ignore (Proc.drain_written_log proc);
      push_pages ctx push ~round:1
        (Image_wire.shippable_ws_pages proc
           ~now:(Engine.now (Host.engine ctx.host))
           ~window_ms)

(* The round-pacing decision: freeze when the round budget is spent or the
   dirty log is small enough, else push the drained dirty log. *)
let handle_ack t ~proc_id ~round =
  match Hashtbl.find_opt t.outbound proc_id with
  | None -> Logs.warn (fun m -> m "MigrationManager: stray push ack")
  | Some push ->
      let dirty = Accent_util.Int_tbl.length push.proc.Proc.written_log in
      if round >= push.max_rounds || dirty <= push.threshold_pages then
        freeze t ~proc:push.proc ~dest:push.dest ~handoff:push.handoff
          (Residual push)
      else
        push_pages t.ctx push ~round:(round + 1)
          (Proc.drain_written_log push.proc)

let start t ~proc ~dest ~transfer ~handoff =
  let classic = freeze t ~proc ~dest ~handoff in
  match (transfer : Strategy.transfer) with
  | Pure_copy -> classic (Whole { no_ious = true })
  | Pure_iou -> classic (Whole { no_ious = false })
  | Resident_set -> classic Keep_resident
  | Working_set { window_ms } -> classic (Keep_window window_ms)
  | Pre_copy { max_rounds; threshold_pages } ->
      start_push t ~proc ~dest ~handoff ~window:None ~max_rounds
        ~threshold_pages
  | Hybrid { max_rounds; threshold_pages; window_ms } ->
      start_push t ~proc ~dest ~handoff ~window:(Some window_ms) ~max_rounds
        ~threshold_pages

(* --- destination side --------------------------------------------------- *)

let finish_insert ctx handoff ~insert_ms proc =
  emit ctx ~proc_id:proc.Proc.id (Mig_event.Inserted { insert_ms });
  proc.Proc.prefetch <- handoff.prefetch;
  proc.Proc.on_complete <-
    Some
      (fun p ->
        let remote_touched_pages =
          match p.Proc.space with
          | Some space -> Address_space.touched_pages space
          | None -> handoff.report.Report.remote_touched_pages
        in
        emit ctx ~proc_id:p.Proc.id
          (Mig_event.Outcome
             { outcome = handoff.report.Report.outcome; remote_touched_pages });
        match handoff.on_complete with
        | Some f -> f p handoff.report
        | None -> ());
  emit ctx ~proc_id:proc.Proc.id Mig_event.Restarted;
  (match handoff.on_restart with Some f -> f proc | None -> ());
  Proc_runner.start ctx.host proc

let insert ctx ~core ~rimas handoff =
  let insert_ms = Insert.estimate_ms (Host.costs ctx.host) core rimas in
  Insert.insert ctx.host ~core ~rimas ~k:(finish_insert ctx handoff ~insert_ms)

(* File an arrival into its migration's entry with [file], then, once the
   Core and the RIMAS are both in hand, insert.  Only a migration the bus
   is tracking gets an entry: a stray arrival would sit in [inbound]
   forever. *)
let arrive t ~proc_id what file =
  if not (Mig_event.tracked t.ctx.bus ~proc_id) then
    Logs.warn (fun m ->
        m "MigrationManager: dropping %s for untracked proc %d" what proc_id)
  else begin
    let entry =
      match Hashtbl.find_opt t.inbound proc_id with
      | Some entry -> entry
      | None ->
          let entry = { core = None; rimas = None; staged = None } in
          Hashtbl.replace t.inbound proc_id entry;
          entry
    in
    file entry;
    match (entry.core, entry.rimas) with
    | Some (core, handoff), Some rimas ->
        Hashtbl.remove t.inbound proc_id;
        insert t.ctx ~core ~rimas handoff
    | _ -> ()
  end

(* File every Data chunk's pages by page index, creating the entry's
   staging table on first use.  Digest chunks are resolved to Data before
   staging; an unresolved one carries no bytes to stage. *)
let stage entry memory =
  let staged =
    match entry.staged with
    | Some staged -> staged
    | None ->
        let staged = Int_tbl.create 256 in
        entry.staged <- Some staged;
        staged
  in
  List.iter
    (fun chunk ->
      match chunk.Memory_object.content with
      | Memory_object.Data run ->
          let first = Page.index_of_addr chunk.Memory_object.range.Vaddr.lo in
          Page_run.iteri
            (fun i value -> Int_tbl.replace staged (first + i) value)
            run
      | Memory_object.Iou _ | Memory_object.Digest_refs _ -> ())
    memory;
  staged

(* The final message brings the Core and the RIMAS together: stage its
   residual, then assemble the insertion RIMAS from every staged page and
   its IOU chunks. *)
let file_final ctx ~core ~handoff memory entry =
  let staged = stage entry memory in
  let iou_chunks =
    List.filter
      (fun c ->
        match c.Memory_object.content with
        | Memory_object.Iou _ -> true
        | Memory_object.Data _ | Memory_object.Digest_refs _ -> false)
      memory
  in
  match Image_wire.assemble staged ~amap:core.Context.amap ~iou_chunks with
  | exception Image_wire.Abort reason ->
      abort_migration ctx ~proc_id:core.Context.proc_id reason
  | rimas ->
      entry.core <- Some (core, handoff);
      entry.rimas <- Some rimas

let handle t msg =
  let ctx = t.ctx in
  let memory () = Option.value msg.Message.memory ~default:[] in
  (* page data is resolved after its delivery is accounted *)
  let resolved ~proc_id memory k =
    match Dedup.resolve ctx.dedup ~proc_id memory with
    | exception Dedup.Unresolvable reason -> abort_migration ctx ~proc_id reason
    | memory -> k memory
  in
  match msg.Message.payload with
  | Mig_core { core; handoff } ->
      let proc_id = core.Context.proc_id in
      emit ctx ~proc_id Mig_event.Core_delivered;
      arrive t ~proc_id "a Core" (fun entry ->
          entry.core <- Some (core, handoff));
      true
  | Mig_rimas { proc_id } ->
      let rimas = memory () in
      (* wire accounting first: data_bytes of the pruned object *)
      emit ctx ~proc_id
        (Mig_event.Rimas_delivered
           { data_bytes = Memory_object.data_bytes rimas });
      resolved ~proc_id rimas (fun rimas ->
          arrive t ~proc_id "a RIMAS" (fun entry -> entry.rimas <- Some rimas));
      true
  | Mig_push_pages { proc_id; round; src_port } ->
      resolved ~proc_id (memory ()) (fun pages ->
          Kernel_ipc.send (Host.kernel ctx.host)
            (Message.make ~ids:(Host.ids ctx.host) ~dest:src_port
               ~inline_bytes:32
               (Mig_push_ack { proc_id; round }));
          arrive t ~proc_id "a push round" (fun entry ->
              ignore (stage entry pages)));
      true
  | Mig_push_ack { proc_id; round } ->
      handle_ack t ~proc_id ~round;
      true
  | Mig_push_final { core; handoff } ->
      let proc_id = core.Context.proc_id and memory = memory () in
      emit ctx ~proc_id Mig_event.Core_delivered;
      (* the residual is the RIMAS data this final message physically
         carries; the staged rounds were accounted per round *)
      emit ctx ~proc_id
        (Mig_event.Rimas_delivered
           { data_bytes = Memory_object.data_bytes memory });
      resolved ~proc_id memory (fun memory ->
          arrive t ~proc_id "a push final"
            (file_final ctx ~core ~handoff memory));
      true
  | _ -> false

let give_up_proc = function
  | Mig_core { core; _ } | Mig_push_final { core; _ } ->
      Some core.Context.proc_id
  | Mig_rimas { proc_id } | Mig_push_pages { proc_id; _ } -> Some proc_id
  (* a lost ack only delays the next round decision; the migration can
     still proceed when the transport gives up on it *)
  | _ -> None

let create ctx =
  let t = { ctx; outbound = Hashtbl.create 4; inbound = Hashtbl.create 4 } in
  (* An abandoned migration never reaches its normal exit (the freeze for
     [outbound], insertion for [inbound]): drop its state when the
     transport gives up on it or the engine aborts it, or the staged pages
     of every failed migration stay resident forever. *)
  Mig_event.subscribe_cleanup ctx.bus (fun ev ->
      match ev.Mig_event.kind with
      | Mig_event.Transport_give_up | Mig_event.Engine_abort _ ->
          let proc_id = ev.Mig_event.proc_id in
          Hashtbl.remove t.outbound proc_id;
          Hashtbl.remove t.inbound proc_id
      | _ -> ());
  t

let debug_stats t =
  [
    ("outbound", Hashtbl.length t.outbound);
    ("inbound", Hashtbl.length t.inbound);
  ]
