(** The ExciseProcess kernel trap (paper §3.1).

    Removes a process's complete context from its host: the process ceases
    to exist locally, its address space is collapsed into a contiguous
    RIMAS image, and the caller receives both context pieces ready for
    shipment.  Port rights pass transparently, so nothing that can name
    the process's ports notices.

    The two dominant costs — AMap construction over the complex process
    map, and the collapse of process memory — are charged on the virtual
    clock using the linear models calibrated against Table 4-4. *)

type timings = {
  amap_ms : float;  (** AMap construction *)
  rimas_ms : float;  (** address-space collapse *)
  overall_ms : float;  (** whole trap, including fixed overhead *)
}

type excised = {
  image : Proc_image.t;
      (** the first-class process image every other field derives from *)
  core : Context.core;
  rimas : Accent_ipc.Memory_object.t;
      (** the collapsed content: Data chunks for RealMem, Iou chunks for
          any pre-existing ImagMem (e.g. on a second migration) *)
  layout : Context.layout_run list;
      (** virtual-address ↔ collapsed-offset correspondence *)
  resident : Accent_mem.Page.index list;
      (** pages that were resident at excision — the resident set a
          strategy may choose to ship *)
  timings : timings;
}

val capture : Host.t -> Proc.t -> excised
(** Freeze and extract, leaving the process intact: interrupt it, take a
    {!Proc_image.t}, collapse it to a RIMAS, and price the trap.  The
    process must not have a fault in flight.  Pure snapshot — nothing is
    dismantled and no virtual time passes, so a caller may capture, keep
    using the live process (e.g. to drain a dirty log) and only then
    {!dissolve}, or checkpoint the image and walk away. *)

val dissolve : Host.t -> Proc.t -> excised -> k:(excised -> unit) -> unit
(** Dismantle the local incarnation of a captured process: its space is
    destroyed (the data now lives in the image), it is removed from the
    host's tables, and [k] fires once the trap's cost has elapsed. *)

val excise : Host.t -> Proc.t -> k:(excised -> unit) -> unit
(** [capture] then [dissolve]: freeze, extract and dismantle in one
    trap — the paper's ExciseProcess. *)

val estimate_timings : Accent_mem.Address_space.t -> timings
(** The cost model by itself, for tests and what-if analysis. *)
