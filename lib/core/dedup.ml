open Accent_sim
open Accent_mem
open Accent_ipc
open Accent_kernel

exception Unresolvable of string

(* A parked outbound send, waiting for the destination's need reply:
   each chunk with the run whose digests were advertised for it. *)
type pending = {
  proc_id : int;
  chunks : (Memory_object.chunk * Page_run.t option) list;
  build : Memory_object.t -> Message.t;
}

type t = {
  host : Host.t;
  port : Port.id;  (** the MigrationManager port need replies come back to *)
  bus : Mig_event.bus;
  store : Accent_net.Content_store.t;
  pending_out : (int, pending) Hashtbl.t;  (** xfer_id -> parked send *)
  staged : (int, (int, Page.value) Hashtbl.t) Hashtbl.t;
      (** proc_id -> digest -> hit value; multiplicity via Hashtbl.add *)
}

let create ~host ~port ~bus =
  let t =
    {
      host;
      port;
      bus;
      store = Accent_net.Netmsgserver.content_store (Host.nms host);
      pending_out = Hashtbl.create 4;
      staged = Hashtbl.create 4;
    }
  in
  (* An abandoned migration never resolves its staged hits or sends its
     parked message: forget both so a re-migration starts clean. *)
  Mig_event.subscribe_cleanup bus (fun ev ->
      match ev.Mig_event.kind with
      | Mig_event.Transport_give_up | Mig_event.Engine_abort _ ->
          let proc_id = ev.Mig_event.proc_id in
          Hashtbl.remove t.staged proc_id;
          Hashtbl.iter
            (fun xfer_id p ->
              if p.proc_id = proc_id then Hashtbl.remove t.pending_out xfer_id)
            (Hashtbl.copy t.pending_out)
      | _ -> ());
  t

let enabled t = Accent_net.Netmsgserver.dedup_enabled (Host.nms t.host)

let emit t ~proc_id kind =
  Mig_event.publish t.bus
    { Mig_event.at = Engine.now (Host.engine t.host); proc_id; kind }

let staged_for t proc_id =
  match Hashtbl.find_opt t.staged proc_id with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 32 in
      Hashtbl.replace t.staged proc_id tbl;
      tbl

(* --- source side ---------------------------------------------------------- *)

(* Each chunk with the run it advertises, read once, and the
   advertisement: the (offset, digests) of every advertised run.  An IOU
   chunk is advertisable too when the source's own store holds the run it
   points at (the backing server banks into the same store): the
   destination may already hold those pages, and materialising them there
   beats pulling them across the wire one fault at a time. *)
let digest_runs t memory =
  let chunks =
    List.map
      (fun (c : Memory_object.chunk) ->
        match c.Memory_object.content with
        | Memory_object.Data run -> (c, Some run)
        | Memory_object.Digest_refs _ -> (c, None)
        | Memory_object.Iou { segment_id; offset; _ } ->
            let pages = Vaddr.len c.Memory_object.range / Page.size in
            let run =
              Accent_net.Content_store.read_run t.store ~segment_id ~offset
                ~pages
            in
            (c, if Page_run.length run = pages then Some run else None))
      memory
  in
  let runs =
    List.filter_map
      (fun ((c : Memory_object.chunk), run) ->
        Option.map
          (fun run -> (c.Memory_object.range.Vaddr.lo, Page_run.digests run))
          run)
      chunks
  in
  (chunks, runs)

let send t ~dest ~proc_id ~memory ~build =
  let direct () = Kernel_ipc.send (Host.kernel t.host) (build memory) in
  if not (enabled t) then direct ()
  else
    match digest_runs t memory with
    | _, [] -> direct ()
    | chunks, runs ->
        let xfer_id = Ids.next (Host.ids t.host) in
        Hashtbl.replace t.pending_out xfer_id { proc_id; chunks; build };
        Kernel_ipc.send (Host.kernel t.host)
          (Protocol.mig_digests ~ids:(Host.ids t.host) ~dest ~xfer_id ~proc_id
             ~src_port:t.port ~runs)

(* Split each advertised chunk's run against the need runs (one map by
   address): pages the destination asked for keep their original shape
   (Data bytes, or an IOU to pull through), the rest travel as 8-byte
   digest references.  A chunk that advertised nothing ships whole. *)
let prune chunks need =
  let needed = Interval_map.create () in
  List.iter
    (fun (off, pages) ->
      Interval_map.set needed ~lo:off ~hi:(off + (pages * Page.size)) ())
    need;
  let split_chunk (c : Memory_object.chunk) run ~mk_needed =
    let lo = c.range.Vaddr.lo in
    Interval_map.fold_pieces needed ~lo ~hi:c.range.Vaddr.hi ~init:[]
      ~f:(fun rev_pieces a b needed ->
        let first_page = (a - lo) / Page.size in
        let sub = Page_run.sub run ~pos:first_page ~len:((b - a) / Page.size) in
        let content =
          match needed with
          | Some () -> mk_needed ~first_page sub
          | None -> Memory_object.Digest_refs (Page_run.digests sub)
        in
        { Memory_object.range = Vaddr.range a b; content } :: rev_pieces)
    |> List.rev
  in
  List.concat_map
    (fun ((c : Memory_object.chunk), advertised) ->
      match (c.Memory_object.content, advertised) with
      | Memory_object.Data _, Some run ->
          (* a needed slice is copied out, so the destination does not pin
             the source's whole run for the few pages it missed *)
          split_chunk c run ~mk_needed:(fun ~first_page:_ sub ->
              Memory_object.Data (Page_run.of_array (Page_run.to_array sub)))
      | Memory_object.Iou { segment_id; backing_port; offset }, Some run ->
          split_chunk c run ~mk_needed:(fun ~first_page _ ->
              Memory_object.Iou
                {
                  segment_id;
                  backing_port;
                  offset = offset + (first_page * Page.size);
                })
      | _ -> [ c ])
    chunks

(* --- the protocol handler ------------------------------------------------- *)

(* For each advertised run, stage the hits and coalesce the misses into
   (offset, pages) sub-runs.  Runs never merge across chunk boundaries. *)
let check_runs t staged runs =
  let pages = ref 0 and hits = ref 0 in
  let need = ref [] in
  let open_run = ref None in
  let flush () =
    (match !open_run with Some r -> need := r :: !need | None -> ());
    open_run := None
  in
  List.iter
    (fun (off, digests) ->
      Array.iteri
        (fun i d ->
          incr pages;
          let page_off = off + (i * Page.size) in
          match Accent_net.Content_store.find t.store d with
          | Some v ->
              incr hits;
              Hashtbl.add staged d v;
              flush ()
          | None -> (
              match !open_run with
              | Some (start, count) when start + (count * Page.size) = page_off
                ->
                  open_run := Some (start, count + 1)
              | _ ->
                  flush ();
                  open_run := Some (page_off, 1)))
        digests;
      flush ())
    runs;
  (!pages, !hits, List.rev !need)

let handle t msg =
  match msg.Message.payload with
  | Protocol.Mig_digests { xfer_id; proc_id; src_port; runs } ->
      let staged = staged_for t proc_id in
      let pages, hits, need = check_runs t staged runs in
      emit t ~proc_id (Mig_event.Dedup_digests { pages; hits });
      Kernel_ipc.send (Host.kernel t.host)
        (Protocol.mig_need ~ids:(Host.ids t.host) ~dest:src_port ~xfer_id
           ~proc_id ~need);
      true
  | Protocol.Mig_need { xfer_id; proc_id; need } ->
      (match Hashtbl.find_opt t.pending_out xfer_id with
      | None ->
          (* the migration was abandoned while the reply was in flight *)
          Logs.warn (fun m ->
              m "Dedup: need reply for unknown transfer %d (proc %d)" xfer_id
                proc_id)
      | Some p ->
          Hashtbl.remove t.pending_out xfer_id;
          let pruned = prune p.chunks need in
          let elided =
            Memory_object.data_bytes (List.map fst p.chunks)
            - Memory_object.data_bytes pruned
          in
          emit t ~proc_id:p.proc_id (Mig_event.Dedup_elided { bytes = elided });
          Kernel_ipc.send (Host.kernel t.host) (p.build pruned));
      true
  | _ -> false

let give_up_proc = function
  | Protocol.Mig_digests { proc_id; _ } | Protocol.Mig_need { proc_id; _ } ->
      Some proc_id
  | _ -> None

(* --- destination side ----------------------------------------------------- *)

let resolve t ~proc_id memory =
  if not (enabled t) then memory
  else begin
    let staged = Hashtbl.find_opt t.staged proc_id in
    let take_staged d =
      Option.bind staged (fun tbl ->
          match Hashtbl.find_opt tbl d with
          | Some v ->
              Hashtbl.remove tbl d;
              Some v
          | None -> None)
    in
    let resolved =
      List.map
        (fun (c : Memory_object.chunk) ->
          match c.Memory_object.content with
          | Memory_object.Iou _ -> c
          | Memory_object.Data run ->
              (* page data that did cross the wire seeds future hits *)
              ignore (Accent_net.Content_store.insert_wire_run t.store run);
              c
          | Memory_object.Digest_refs digests ->
              let values =
                Array.map
                  (fun d ->
                    match take_staged d with
                    | Some v -> v
                    | None -> (
                        match Accent_net.Content_store.find t.store d with
                        | Some v -> v
                        | None ->
                            raise
                              (Unresolvable
                                 (Printf.sprintf
                                    "dedup: digest %#x vanished before \
                                     materialisation"
                                    d))))
                  digests
              in
              {
                c with
                Memory_object.content =
                  Memory_object.Data (Page_run.of_array values);
              })
        memory
    in
    (* at most one negotiated transfer per proc is in flight (rounds are
       ack-serialised), so whatever this message did not consume can never
       be referenced again *)
    Hashtbl.remove t.staged proc_id;
    resolved
  end

let debug_stats t =
  [
    ("pending_out", Hashtbl.length t.pending_out);
    ("staged_procs", Hashtbl.length t.staged);
  ]

