(** Process control blocks.

    Of a process's five context components (paper §3.1) — microstate,
    kernel stack, PCB, port rights, address space — the first three travel
    as an opaque blob of roughly 1 KB inside the Core message.  The
    simulator prices that blob as a constant ({!Cost_model.pcb_bytes}) and
    carries only the fields it interprets: the scheduling status, the
    microengine's program counter and the per-process fault and migration
    counts. *)

type status = Ready | Running | Blocked | Terminated | Excised

type t = {
  mutable status : status;
  mutable pc : int;  (** microengine "program counter": next trace step *)
  mutable faults_zero : int;
  mutable faults_disk : int;
  mutable faults_imag : int;
  mutable migrations : int;
}

val create : unit -> t
(** Fresh PCB: [Ready], at step 0, no faults or migrations yet. *)

val copy : t -> t
(** Independent copy — what checkpointing needs to freeze the
    microengine state while the live PCB keeps mutating. *)
