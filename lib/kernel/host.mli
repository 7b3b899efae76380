(** One machine of the testbed.

    A host assembles the substrates: physical memory and paging disk, a
    disk queue, the kernel IPC layer with its CPU, the NetMsgServer wired
    to the shared link, and the Pager.  It owns the address spaces and
    processes living on it and dispatches frame evictions to the right
    space. *)

type t

val create :
  Accent_sim.Engine.t ->
  ids:Accent_sim.Ids.t ->
  id:int ->
  name:string ->
  costs:Cost_model.t ->
  link:Accent_net.Link.t ->
  registry:Accent_net.Net_registry.t ->
  monitor:Accent_net.Transfer_monitor.t ->
  t

val id : t -> int
val name : t -> string
val engine : t -> Accent_sim.Engine.t
val ids : t -> Accent_sim.Ids.t
val costs : t -> Cost_model.t
val mem : t -> Accent_mem.Phys_mem.t
val kernel : t -> Accent_ipc.Kernel_ipc.t
val nms : t -> Accent_net.Netmsgserver.t
val pager : t -> Pager.t
val registry : t -> Accent_net.Net_registry.t

val new_space : t -> Accent_mem.Address_space.t
(** Fresh address space registered with this host's eviction dispatch. *)

val drop_space : t -> Accent_mem.Address_space.t -> unit
(** Destroy the space and unregister it. *)

val new_port : t -> Accent_ipc.Port.id
(** Allocate a port homed on this host. *)

val new_backer : t -> service_ms:float -> Accent_net.Backing_server.t
(** A backing server on a fresh port homed here, banking into the host's
    shared content store. *)

val spawn :
  t ->
  name:string ->
  trace:Trace.t ->
  space:Accent_mem.Address_space.t ->
  ?n_ports:int ->
  unit ->
  Proc.t
(** Create a process owning [n_ports] (default 2) fresh ports homed here. *)

val adopt : t -> Proc.t -> unit
(** Register a reincarnated process (InsertProcess) and re-home its
    ports. *)

val remove_proc : t -> Proc.t -> unit
(** Unregister (ExciseProcess); the process object survives as context. *)

val proc_count : t -> int
val find_proc : t -> int -> Proc.t option

val procs : t -> Proc.t list
(** All registered processes, in id order. *)

val live_proc_count : t -> int
(** Processes currently Running or Ready. *)

val disk_server : t -> Accent_sim.Queue_server.t
val cpu : t -> Accent_sim.Queue_server.t

val exec_cpu : t -> Accent_sim.Queue_server.t
(** The user-mode execution engine: processes' compute (trace think time)
    serialises here, so co-located processes genuinely contend for the
    machine — what makes load balancing worth anything. *)

val release_ports : t -> Proc.t -> unit
(** Drop the registry port-home entries of a finished process.  Call
    only when the process is terminally done on this host — not on
    excision, where the destination re-homes the same ports. *)

val message_seconds : t -> float
(** Seconds this host has spent handling messages (NetMsgServer CPU plus
    kernel IPC CPU) — the per-node quantity summed in Figure 4-4. *)

val resident_pages : t -> int
(** Resident pages summed over the spaces registered here; equals
    [Phys_mem.in_use (mem t)] while every frame belongs to one of them. *)

val segments_owned : t -> int
(** Segments in the host's content store that a live backer owns: the
    NetMsgServer's IOU-cache backer and every {!new_backer}.  Equals
    [Content_store.segment_count] of that store while nothing else
    banks into it. *)
