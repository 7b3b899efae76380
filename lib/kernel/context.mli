(** Excised process contexts.

    ExciseProcess delivers a context as two messages (paper §3.1): the
    {e Core} — microstate, kernel stack, PCB, port rights, plus an AMap of
    the whole address space — which must always be physically copied; and
    the {e RIMAS} — the RealMem and ImagMem contents collapsed into one
    contiguous area — which is eligible for lazy treatment. *)

type core = {
  proc_id : int;
  proc_name : string;
  pcb : Pcb.t;
  port_rights : Accent_ipc.Port.id list;
  amap : Accent_mem.Amap.t;
  trace : Trace.t;  (** the program: trace plus [pcb.pc] resumes execution *)
}

val core_wire_bytes : core -> int
(** Bytes the Core message occupies: PCB blob + AMap + rights. *)

type layout_run = {
  vaddr_lo : int;
  vaddr_hi : int;
  collapsed_lo : int;
      (** where this content range begins in the collapsed RIMAS area *)
}

val collapsed_of_vaddr : layout_run list -> int -> int option
(** Translate a virtual address to its collapsed offset. *)

val vaddr_of_collapsed : layout_run list -> int -> int option
