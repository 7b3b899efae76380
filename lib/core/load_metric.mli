(** Load metrics for automatic migration.

    §6 poses this as the open problem: good strategies "will involve the
    development of good load metrics which specifically take into account
    the fact that a process virtual address space may be physically
    dispersed among several computational hosts."  This module supplies
    both halves:

    - a conventional {!host_load} (runnable processes plus message-server
      queue pressure), and
    - {!dispersion}: where a process's memory actually lives right now —
      its materialised pages locally, and each imaginary segment attributed
      to the host backing its port.  A scheduler that relocates a process
      {e toward} its backing data turns remote imaginary faults into local
      IPC, which in this testbed (as in Accent) is an order of magnitude
      cheaper and puts nothing on the wire. *)

val host_load : Accent_kernel.Host.t -> float
(** Live (Running or Ready) processes plus 0.2 per message queued at the
    host CPU. *)

val dispersion :
  registry:Accent_net.Net_registry.t ->
  Accent_kernel.Host.t ->
  Accent_kernel.Proc.t ->
  (int * int) list
(** [(host_id, bytes)] of everywhere the process's validated non-zero
    memory currently lives, largest share first.  The process's own host
    carries its materialised pages; IOU-backed ranges are attributed to
    the backing port's home host (unlocatable segments are dropped). *)

val affinity :
  registry:Accent_net.Net_registry.t ->
  Accent_kernel.Host.t ->
  Accent_kernel.Proc.t ->
  host_id:int ->
  float
(** Fraction of the process's placed bytes living on [host_id]; 0 when the
    process has no placeable memory. *)
