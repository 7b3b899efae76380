open Accent_sim
open Accent_mem
open Accent_ipc
module Int_tbl = Accent_util.Int_tbl

exception Bad_memory_reference of { proc : string; page : int }

type pending = {
  proc : Proc.t;
  k : unit -> unit;
  timeout : Event_queue.handle;
}

type t = {
  engine : Engine.t;
  ids : Ids.t;
  kernel : Kernel_ipc.t;
  disk : Queue_server.t;
  costs : Cost_model.t;
  host_id : int;
  port : Port.id;
  segment_ports : (int, Port.id) Hashtbl.t;
  (* offset -> vaddr translation per segment; value is (vaddr - offset) so
     contiguous mappings coalesce *)
  mutable layouts : (int, int Interval_map.t) Hashtbl.t;
  segments_of_space : (int, int list ref) Hashtbl.t;
  waiting : (int * int, pending) Hashtbl.t; (* (segment, offset) *)
  mutable faults_zero : int;
  mutable faults_disk : int;
  mutable faults_imag : int;
  mutable fault_timeouts : int;
  (* observation hooks: the pager sits below the migration layer, so
     whoever wants per-fault events (the MigrationManager's bus) installs
     itself here rather than the pager depending upward *)
  mutable on_fault : Proc.t -> [ `Zero | `Disk | `Imaginary ] -> unit;
  mutable on_prefetch : Proc.t -> [ `Issued | `Hit ] -> unit;
}

let port t = t.port

let register_segment t ~space_id ~segment_id ~backing_port ~offset ~len ~vaddr
    =
  Hashtbl.replace t.segment_ports segment_id backing_port;
  let list =
    match Hashtbl.find_opt t.segments_of_space space_id with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.segments_of_space space_id l;
        l
  in
  if not (List.mem segment_id !list) then list := segment_id :: !list;
  let layout =
    match Hashtbl.find_opt t.layouts segment_id with
    | Some layout -> layout
    | None ->
        let layout = Interval_map.create () in
        Hashtbl.replace t.layouts segment_id layout;
        layout
  in
  Interval_map.set layout ~lo:offset ~hi:(offset + len) (vaddr - offset)

let backing_port t ~segment_id = Hashtbl.find_opt t.segment_ports segment_id

(* The address a segment offset is mapped at, or -1 off the layout; no
   option is built per page of a reply. *)
let vaddr_of_offset t ~segment_id ~offset =
  match Hashtbl.find t.layouts segment_id with
  | layout -> (
      match Interval_map.find layout offset with
      | delta -> offset + delta
      | exception Not_found -> -1)
  | exception Not_found -> -1

let drop_bindings t ~space_id ~notify =
  match Hashtbl.find_opt t.segments_of_space space_id with
  | None -> ()
  | Some list ->
      Hashtbl.remove t.segments_of_space space_id;
      List.iter
        (fun segment_id ->
          (if notify then
             match Hashtbl.find_opt t.segment_ports segment_id with
             | Some dest ->
                 Kernel_ipc.send t.kernel
                   (Protocol.segment_death ~ids:t.ids ~dest ~segment_id)
             | None -> ());
          Hashtbl.remove t.segment_ports segment_id;
          Hashtbl.remove t.layouts segment_id)
        !list

let release_segments t ~space_id = drop_bindings t ~space_id ~notify:true
let forget_segments t ~space_id = drop_bindings t ~space_id ~notify:false

(* Install the pages of a read reply.  The first page unblocks the faulting
   process; the rest are prefetch, remembered so later references count as
   hits. *)
let handle_reply t ~segment_id ~offset ~page_data =
  match Hashtbl.find_opt t.waiting (segment_id, offset) with
  | None ->
      Logs.warn (fun m ->
          m "pager%d: unsolicited read reply (segment %d offset %d)" t.host_id
            segment_id offset)
  | Some { proc; k; timeout } ->
      Hashtbl.remove t.waiting (segment_id, offset);
      Engine.cancel t.engine timeout;
      let n = Page_run.length page_data in
      if n = 0 then begin
        (* the backer answered but no longer holds the data (it crashed or
           retired the segment): the page is unrecoverable, same outcome as
           a fault timeout *)
        t.fault_timeouts <- t.fault_timeouts + 1;
        proc.Proc.failed <- true;
        proc.Proc.pcb.Pcb.status <- Pcb.Terminated;
        proc.Proc.finished_at <- Some (Engine.now t.engine);
        Logs.err (fun m ->
            m "pager%d: empty read reply for segment %d; %s killed" t.host_id
              segment_id proc.Proc.name)
      end
      else
      let install_cost =
        Time.ms (Cost_model.imag_install_per_page_ms *. float_of_int n)
      in
        Engine.post t.engine ~delay:install_cost (fun () ->
             let space = Proc.space_exn proc in
             Page_run.iteri
               (fun i data ->
                 let page_offset = offset + (i * Page.size) in
                 let vaddr =
                   vaddr_of_offset t ~segment_id ~offset:page_offset
                 in
                 (* -1: off the end of the mapped layout *)
                 if vaddr >= 0 then
                   let idx = Page.index_of_addr vaddr in
                   match Address_space.presence_of_page space idx with
                   | Imaginary_pending _ ->
                       Address_space.resolve_imaginary_fault space idx data;
                       if i > 0 then begin
                         Int_tbl.replace proc.Proc.prefetched_pending idx ();
                         proc.Proc.prefetch_extra <-
                           proc.Proc.prefetch_extra + 1;
                         t.on_prefetch proc `Issued
                       end
                   | Resident _ | Paged_out | Zero_pending | Invalid ->
                       (* already materialised some other way; drop *)
                       ())
               page_data;
             k ())

let reply_handler t msg =
  match msg.Message.payload with
  | Protocol.Imaginary_read_reply { segment_id; offset; page_data } ->
      handle_reply t ~segment_id ~offset ~page_data
  | _ ->
      Logs.warn (fun m -> m "pager%d: unexpected message on pager port" t.host_id)

let create engine ~ids ~kernel ~disk ~costs ~host_id =
  let t =
    {
      engine;
      ids;
      kernel;
      disk;
      costs;
      host_id;
      port = Port.fresh ids;
      segment_ports = Hashtbl.create 16;
      layouts = Hashtbl.create 16;
      segments_of_space = Hashtbl.create 16;
      waiting = Hashtbl.create 64;
      faults_zero = 0;
      faults_disk = 0;
      faults_imag = 0;
      fault_timeouts = 0;
      on_fault = (fun _ _ -> ());
      on_prefetch = (fun _ _ -> ());
    }
  in
  Kernel_ipc.bind kernel t.port (reply_handler t);
  t

let imaginary_fault t proc ~segment_id ~offset ~k =
  t.faults_imag <- t.faults_imag + 1;
  proc.Proc.pcb.Pcb.faults_imag <- proc.Proc.pcb.Pcb.faults_imag + 1;
  t.on_fault proc `Imaginary;
  (match Hashtbl.find_opt t.segment_ports segment_id with
  | None ->
      failwith
        (Printf.sprintf "pager%d: no backing port for segment %d" t.host_id
           segment_id)
  | Some dest ->
      (* the backing site may never answer (it can die after migration —
         the residual dependency); give up after the timeout and kill the
         process, since its memory is unrecoverable *)
      let timeout =
        Engine.schedule t.engine
          ~delay:(Time.ms t.costs.Cost_model.fault_timeout_ms) (fun () ->
            if Hashtbl.mem t.waiting (segment_id, offset) then begin
              Hashtbl.remove t.waiting (segment_id, offset);
              t.fault_timeouts <- t.fault_timeouts + 1;
              proc.Proc.failed <- true;
              proc.Proc.pcb.Pcb.status <- Pcb.Terminated;
              proc.Proc.finished_at <- Some (Engine.now t.engine);
              Logs.err (fun m ->
                  m "pager%d: imaginary fault timed out; %s killed (backing \
                     site unreachable)"
                    t.host_id proc.Proc.name)
            end)
      in
      Hashtbl.replace t.waiting (segment_id, offset) { proc; k; timeout };
      let pages = 1 + max 0 proc.Proc.prefetch in
      Engine.post t.engine ~delay:(Time.ms Cost_model.pager_ms)
        (fun () ->
          Kernel_ipc.send t.kernel
            (Protocol.read_request ~ids:t.ids ~dest ~reply_to:t.port ~segment_id
               ~offset ~pages)))

let reference t proc page ~k =
  let space = Proc.space_exn proc in
  let resident = Address_space.reference space page in
  Accent_mem.Working_set.reference proc.Proc.working_set
    ~clock:(Engine.clock t.engine) page;
  (* only prefetching processes ever fill this table *)
  if
    Int_tbl.length proc.Proc.prefetched_pending > 0
    && Int_tbl.mem proc.Proc.prefetched_pending page
  then begin
    Int_tbl.remove proc.Proc.prefetched_pending page;
    proc.Proc.prefetch_hits <- proc.Proc.prefetch_hits + 1;
    t.on_prefetch proc `Hit
  end;
  if resident then k ()
  else
    match Address_space.presence_of_page space page with
    | Resident _ -> assert false (* [reference] said it is not *)
    | Zero_pending ->
      t.faults_zero <- t.faults_zero + 1;
      proc.Proc.pcb.Pcb.faults_zero <- proc.Proc.pcb.Pcb.faults_zero + 1;
      t.on_fault proc `Zero;
      Engine.post t.engine ~delay:(Time.ms Cost_model.fill_zero_ms)
        (fun () ->
          Address_space.resolve_zero_fault space page;
          k ())
  | Paged_out ->
      t.faults_disk <- t.faults_disk + 1;
      proc.Proc.pcb.Pcb.faults_disk <- proc.Proc.pcb.Pcb.faults_disk + 1;
      t.on_fault proc `Disk;
      Engine.post t.engine ~delay:(Time.ms Cost_model.pager_ms)
        (fun () ->
          Queue_server.submit t.disk
            ~service_time:(Time.ms Cost_model.disk_service_ms)
            (fun () ->
              Address_space.resolve_disk_fault space page;
              k ()))
  | Imaginary_pending { segment_id; offset } ->
      imaginary_fault t proc ~segment_id ~offset ~k
  | Invalid -> raise (Bad_memory_reference { proc = proc.Proc.name; page })

let set_observer t ~on_fault ~on_prefetch =
  t.on_fault <- on_fault;
  t.on_prefetch <- on_prefetch

let fault_timeouts t = t.fault_timeouts
let faults_zero t = t.faults_zero
let faults_disk t = t.faults_disk
let faults_imag t = t.faults_imag

let pending_faults_for t ~proc_id =
  Hashtbl.fold
    (fun _ { proc; _ } acc -> if proc.Proc.id = proc_id then acc + 1 else acc)
    t.waiting 0
