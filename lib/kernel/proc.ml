type t = {
  id : int;
  name : string;
  pcb : Pcb.t;
  mutable space : Accent_mem.Address_space.t option;
  mutable ports : Accent_ipc.Port.id list;
  trace : Trace.t;
  mutable prefetch : int;
  mutable started_at : Accent_sim.Time.t option;
  mutable finished_at : Accent_sim.Time.t option;
  mutable on_complete : (t -> unit) option;
  working_set : Accent_mem.Working_set.t;
  prefetched_pending : unit Accent_util.Int_tbl.t;
  mutable prefetch_extra : int;
  mutable prefetch_hits : int;
  mutable failed : bool;
  written_log : unit Accent_util.Int_tbl.t;
  mutable in_flight : bool;
}

let create ~id ~name ~trace ?(ports = []) ~space () =
  {
    id;
    name;
    pcb = Pcb.create ();
    space = Some space;
    ports;
    trace;
    prefetch = 0;
    started_at = None;
    finished_at = None;
    on_complete = None;
    working_set =
      Accent_mem.Working_set.create ~window:(Accent_sim.Time.seconds 10.);
    prefetched_pending = Accent_util.Int_tbl.create 16;
    prefetch_extra = 0;
    prefetch_hits = 0;
    failed = false;
    written_log = Accent_util.Int_tbl.create 16;
    in_flight = false;
  }

let reincarnate ~id ~name ~pcb ~trace ~ports ~space =
  {
    id;
    name;
    pcb;
    space = Some space;
    ports;
    trace;
    prefetch = 0;
    started_at = None;
    finished_at = None;
    on_complete = None;
    working_set =
      Accent_mem.Working_set.create ~window:(Accent_sim.Time.seconds 10.);
    prefetched_pending = Accent_util.Int_tbl.create 16;
    prefetch_extra = 0;
    prefetch_hits = 0;
    failed = false;
    written_log = Accent_util.Int_tbl.create 16;
    in_flight = false;
  }

let space_exn t =
  match t.space with
  | Some space -> space
  | None -> invalid_arg (Printf.sprintf "process %s is excised" t.name)

let is_done t = t.pcb.Pcb.pc >= Trace.length t.trace

let prefetch_hit_ratio t =
  if t.prefetch_extra = 0 then None
  else Some (float_of_int t.prefetch_hits /. float_of_int t.prefetch_extra)

let remote_execution_time t =
  match (t.started_at, t.finished_at) with
  | Some a, Some b -> Some (Accent_sim.Time.diff b a)
  | _ -> None

let written_pages t =
  Accent_util.Int_tbl.fold (fun page () acc -> page :: acc) t.written_log []
  |> List.sort Int.compare

let drain_written_log t =
  let pages = written_pages t in
  Accent_util.Int_tbl.reset t.written_log;
  pages

let write_marker = '\xAB'

let apply_write t page =
  let space = space_exn t in
  (match Accent_mem.Address_space.page_data space page with
  | Some data ->
      (* promotion on write: the page materialises here, however symbolic
         its value was before *)
      Bytes.set data 0 write_marker;
      Accent_mem.Address_space.write_page space page
        (Accent_mem.Page.of_bytes data)
  | None -> invalid_arg "Proc.apply_write: page not materialised");
  Accent_util.Int_tbl.replace t.written_log page ()
