open Accent_sim

let finish host proc =
  proc.Proc.pcb.Pcb.status <- Pcb.Terminated;
  proc.Proc.finished_at <- Some (Engine.now (Host.engine host));
  (match proc.Proc.space with
  | Some space ->
      Pager.release_segments (Host.pager host)
        ~space_id:(Accent_mem.Address_space.id space)
  | None -> ());
  Host.release_ports host proc;
  match proc.Proc.on_complete with None -> () | Some f -> f proc

(* One runner per incarnation: its two continuations — CPU grant and
   fault-service completion — are allocated once at [start] and reused
   for every trace step, instead of two fresh closures per reference.
   A process has at most one step outstanding (the next is only
   submitted from [after_ref]), so stashing the current step's page and
   write flag in mutable fields is race-free. *)
type runner = {
  host : Host.t;
  proc : Proc.t;
  mutable page : Accent_mem.Page.index;
  mutable write : bool;
  mutable on_cpu : unit -> unit;
  mutable after_ref : unit -> unit;
}

let step r =
  let proc = r.proc in
  match proc.Proc.pcb.Pcb.status with
  | Pcb.Running ->
      if Proc.is_done proc then finish r.host proc
      else begin
        let trace = proc.Proc.trace and pc = proc.Proc.pcb.Pcb.pc in
        r.page <- Trace.page_at trace pc;
        r.write <- Trace.write_at trace pc;
        (* compute runs on the host's execution CPU, so co-located
           processes contend for it *)
        Queue_server.submit (Host.exec_cpu r.host)
          ~service_time:(Time.ms (Trace.think_at trace pc)) r.on_cpu
      end
  | Pcb.Ready | Pcb.Blocked | Pcb.Terminated | Pcb.Excised -> ()

let nop () = ()

let make_runner host proc =
  let r = { host; proc; page = 0; write = false; on_cpu = nop; after_ref = nop } in
  r.after_ref <-
    (fun () ->
      if r.write then Proc.apply_write proc r.page;
      proc.Proc.in_flight <- false;
      proc.Proc.pcb.Pcb.pc <- proc.Proc.pcb.Pcb.pc + 1;
      step r);
  r.on_cpu <-
    (fun () ->
      (* The PCB is shared between a process's incarnations (the context
         ships it by reference), so after a migration completes the
         *destination* restart flips the status back to Running — and a
         stale step still queued on the source's exec CPU, which can stay
         deep for hundreds of milliseconds under cluster churn, would
         sail through a status-only check and reference the excised
         source incarnation.  The two paths that drop a live
         incarnation from its host table — excision and crash
         recovery's zombie sweep — clear its [space] in the same step
         (a finished one is already Terminated), so a present space is
         the current-incarnation test, read off the record the step
         already holds instead of a host-table probe. *)
      match proc.Proc.space with
      | Some _ when proc.Proc.pcb.Pcb.status = Pcb.Running ->
          proc.Proc.in_flight <- true;
          Pager.reference (Host.pager host) proc r.page ~k:r.after_ref
      | Some _ | None -> ());
  r

let start host proc =
  proc.Proc.pcb.Pcb.status <- Pcb.Running;
  proc.Proc.started_at <- Some (Engine.now (Host.engine host));
  step (make_runner host proc)

let interrupt proc =
  if proc.Proc.pcb.Pcb.status = Pcb.Running then
    proc.Proc.pcb.Pcb.status <- Pcb.Ready
