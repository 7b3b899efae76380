(** Process control blocks and the microengine state.

    Of a process's five context components (paper §3.1) — microstate,
    kernel stack, PCB, port rights, address space — the first three travel
    as an opaque blob of roughly 1 KB inside the Core message.  We carry
    the blob as its seed and length — the bytes are a pure function of
    the two, generated only when {!checksum} reads them — plus the few
    fields the simulator interprets. *)

type status = Ready | Running | Blocked | Terminated | Excised

type t = {
  mutable status : status;
  mutable priority : int;
  mutable pc : int;  (** microengine "program counter": next trace step *)
  tag : int;  (** seed of the opaque register/stack image *)
  microstate_bytes : int;  (** length of that image *)
  mutable faults_zero : int;
  mutable faults_disk : int;
  mutable faults_imag : int;
  mutable migrations : int;
}

val create : ?priority:int -> ?microstate_bytes:int -> tag:int -> unit -> t
(** Fresh PCB with deterministic microstate contents derived from [tag]
    ([microstate_bytes] defaults to 1024, the paper's "roughly 1 Kbyte"). *)

val copy : t -> t
(** Independent copy — what checkpointing needs to freeze the
    microengine state while the live PCB keeps mutating. *)

val size_bytes : t -> int
val checksum : t -> int
(** Checksum of the microstate image, generated afresh from [tag]. *)
