(** The Pager/Scheduler: the kernel's fault-handling process (paper §2.2,
    §2.3).

    Every memory reference a process makes funnels through {!reference},
    which classifies the page and services whichever fault applies:

    - resident: bump LRU recency, continue immediately;
    - RealZeroMem: the cheap FillZero path — reserve a frame, zero it, map
      it, never touching the disk;
    - RealMem on disk: a 40.8 ms local disk fault through the host's disk
      queue;
    - ImagMem: send an Imaginary Read Request (asking for 1 + prefetch
      contiguous pages) to the segment's backing port and block the process
      until the reply maps the data in;
    - BadMem: raise {!Bad_memory_reference} — the debugger's cue.

    The pager owns one port per host on which read replies arrive, keeps
    the segment-to-backing-port bindings, and tracks prefetch hit ratios
    through the owning process's accounting fields. *)

exception Bad_memory_reference of { proc : string; page : int }

type t

val create :
  Accent_sim.Engine.t ->
  ids:Accent_sim.Ids.t ->
  kernel:Accent_ipc.Kernel_ipc.t ->
  disk:Accent_sim.Queue_server.t ->
  costs:Cost_model.t ->
  host_id:int ->
  t
(** Binds the pager's reply port in the host kernel. *)

val port : t -> Accent_ipc.Port.id

(** {2 Imaginary segment bindings} *)

val register_segment :
  t ->
  space_id:int ->
  segment_id:int ->
  backing_port:Accent_ipc.Port.id ->
  offset:int ->
  len:int ->
  vaddr:int ->
  unit
(** Teach the pager where read requests for [segment_id] go, which
    address space's lifetime the segment is tied to, and that segment
    offsets [offset, offset+len) sit at virtual addresses
    [vaddr, vaddr+len) — needed to map prefetched pages, which arrive
    addressed by segment offset. *)

val backing_port : t -> segment_id:int -> Accent_ipc.Port.id option
(** The backing port registered for a segment, if any. *)

val release_segments : t -> space_id:int -> unit
(** Send Imaginary Segment Death for every segment tied to the space and
    forget the bindings (called when the process terminates or is
    destroyed; §2.2). *)

val forget_segments : t -> space_id:int -> unit
(** Drop the bindings {e without} death notices — used by ExciseProcess,
    whose IOUs survive the move and will be re-registered at the new
    site. *)

(** {2 The fault path} *)

val reference :
  t -> Proc.t -> Accent_mem.Page.index -> k:(unit -> unit) -> unit
(** Service one reference by the process, calling [k] when the page is
    mapped and the process may continue. *)

(** {2 Observation} *)

val set_observer :
  t ->
  on_fault:(Proc.t -> [ `Zero | `Disk | `Imaginary ] -> unit) ->
  on_prefetch:(Proc.t -> [ `Issued | `Hit ] -> unit) ->
  unit
(** Install per-event hooks, replacing any previous observer.  [on_fault]
    fires once per serviced fault as it is classified; [on_prefetch] fires
    when a prefetched page is installed ([`Issued]) and when a later
    reference lands on one ([`Hit]).  The pager sits below the migration
    layer, so the MigrationManager's event bus attaches here rather than
    the pager depending upward.  Hooks must not re-enter the pager. *)

(** {2 Accounting} *)

val faults_zero : t -> int
val faults_disk : t -> int
val faults_imag : t -> int

val fault_timeouts : t -> int
(** Faults abandoned because no reply arrived within the cost model's
    timeout; the faulting process is killed (its memory is gone — the
    residual-dependency hazard of lazy migration).

    With the {!Accent_net.Reliable} transport enabled, a read request (or
    its reply) lost on the wire is retransmitted by the transport well
    inside [fault_timeout_ms]: the default ARQ gives up only after ~4.8 s
    of backed-off retries, so this timer fires for transient loss only if
    the cost model shortens it below the retry span.  It remains the
    backstop for the cases retransmission cannot cure — a partition
    outlasting the retry cap, or a backing server that lost its cache. *)

val pending_faults_for : t -> proc_id:int -> int
(** Faults of one process awaiting a read reply (ExciseProcess refuses to
    remove a process with one in flight). *)
