(** Simulated processes.

    A process is a PCB, a set of port rights, an address space (absent
    while the process is excised), and a reference trace with a program
    counter.  Everything here is mechanism; execution is driven by
    {!Proc_runner} and faults are serviced by {!Pager}.

    A process costs nothing for what it has not used: its two page sets,
    [prefetched_pending] and [written_log], are {!Accent_util.Int_tbl}s
    that hold a 4-word record and no slots until their first insert, so
    a queued job that never prefetches or writes pays 8 words for
    both. *)

type t = {
  id : int;
  name : string;
  pcb : Pcb.t;
  mutable space : Accent_mem.Address_space.t option;
  mutable ports : Accent_ipc.Port.id list;
      (** ports whose Receive rights this process holds *)
  trace : Trace.t;
  mutable prefetch : int;
      (** pages to prefetch on each imaginary fault (0 = none); set by the
          migration strategy *)
  (* --- measurement --- *)
  mutable started_at : Accent_sim.Time.t option;
      (** first instruction at the current host after (re)start *)
  mutable finished_at : Accent_sim.Time.t option;
  mutable on_complete : (t -> unit) option;
  working_set : Accent_mem.Working_set.t;
  (* --- prefetch accounting (§4.3.3 hit ratios) --- *)
  prefetched_pending : unit Accent_util.Int_tbl.t;
      (** pages a prefetch installed that no reference has hit yet *)
  mutable prefetch_extra : int;  (** extra pages installed by prefetch *)
  mutable prefetch_hits : int;  (** of those, later referenced *)
  (* --- dirty tracking (consumed by pre-copy migration) --- *)
  mutable failed : bool;
      (** terminated abnormally (e.g. an imaginary fault timed out because
          the backing site died — the residual-dependency hazard) *)
  written_log : unit Accent_util.Int_tbl.t;
      (** pages stored to since the log was last drained *)
  mutable in_flight : bool;
      (** a step's reference is currently being serviced — freezing must
          wait for it *)
}

val create :
  id:int ->
  name:string ->
  trace:Trace.t ->
  ?ports:Accent_ipc.Port.id list ->
  space:Accent_mem.Address_space.t ->
  unit ->
  t
(** A new process bound to [space], with a fresh PCB. *)

val reincarnate :
  id:int ->
  name:string ->
  pcb:Pcb.t ->
  trace:Trace.t ->
  ports:Accent_ipc.Port.id list ->
  space:Accent_mem.Address_space.t ->
  t
(** Rebuild a process from its excised context (InsertProcess): the PCB —
    program counter, fault counts — continues from where
    ExciseProcess froze it. *)

val space_exn : t -> Accent_mem.Address_space.t
(** Raises [Invalid_argument] if the process is excised. *)

val is_done : t -> bool
(** Program counter has reached the end of the trace. *)

val prefetch_hit_ratio : t -> float option
(** Hits over extra prefetched pages; [None] if nothing was prefetched. *)

val remote_execution_time : t -> Accent_sim.Time.t option
(** [finished_at - started_at] once both are known. *)

val written_pages : t -> Accent_mem.Page.index list
(** Pages dirtied since the last drain, ascending, leaving the log as it
    is. *)

val drain_written_log : t -> Accent_mem.Page.index list
(** Pages dirtied since the last drain, clearing the log — one pre-copy
    round's worth of work. *)

val write_marker : char
(** The byte a simulated store deposits at offset 0 of its page; content
    verification across migrations keys on it. *)

val apply_write : t -> Accent_mem.Page.index -> unit
(** Perform a store to a resident page: stamps {!write_marker}, dirties
    the frame, records the page in the written log. *)
