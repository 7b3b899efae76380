(** First-class process images: the complete migratable state of a
    process as one value.

    Everything ExciseProcess extracts and InsertProcess rebuilds — the
    AMap and cold-extent layout, every materialised page value with its
    residency, the microstate/PCB and port rights, the working-set
    recency stream, the dirty-page log and the provenance of pending
    IOUs — captured in one plain-data snapshot.  The transfer engine
    assembles its wire messages {e from} an image rather than from
    ad-hoc per-strategy bookkeeping, and a durable checkpoint is just an
    image with its page values swapped for digests
    ({!Accent_core.Checkpoint}).

    Ownership contract (docs/ARCHITECTURE.md §9): a captured image
    {e shares} the live PCB and page values with the process — cheap, and
    exactly what migration wants, since excision dissolves the source
    incarnation immediately.  Anything that lets the process keep
    running after the snapshot (checkpointing) must call {!freeze} to
    privatise the mutable PCB first.  Page values are immutable
    and never materialised by any operation here: symbolic pages stay
    symbolic however many captures, checkpoints and restores they
    traverse. *)

open Accent_mem

type t = {
  core : Context.core;  (** PCB, port rights, AMap, trace *)
  mem : Address_space.image_run list;
      (** every backed range with page values and homes
          ({!Address_space.export_image}) *)
  backings : (int * Accent_ipc.Port.id) list;
      (** pending-IOU provenance: backing port per imaginary segment *)
  ws : Working_set.snapshot;  (** working-set recency *)
  dirty : Page.index list;  (** written-log at capture, sorted *)
  resident : Page.index list;
      (** pages resident at capture, in frame-pool order (the resident
          set a strategy may choose to ship) *)
}

val capture : Host.t -> Proc.t -> t
(** Synchronous snapshot of a quiescent process (no virtual time
    passes; the trap cost is charged by {!Excise}).  Shares the live PCB
    and page values.  Raises [Failure] if an imaginary region's backing
    port is unknown to the pager. *)

val freeze : t -> t
(** Privatise the mutable state (deep-copies the PCB) so the image stays
    valid while the process keeps executing — the checkpointing
    contract. *)

val to_rimas : t -> Accent_ipc.Memory_object.t * Context.layout_run list
(** Collapse the image into a contiguous RIMAS plus the
    virtual-address ↔ collapsed-offset layout — the single
    implementation of the paper's §3.1 address-space collapse (Data
    chunks merged into one physical area, IOU chunks for imaginary
    regions). *)

(** {2 Reading the image} *)

val backing_port_exn : t -> segment_id:int -> Accent_ipc.Port.id
(** The backing port recorded for an imaginary segment; raises [Failure]
    if the image does not know it. *)

val find_value : t -> Page.index -> Page.value option
(** The page's value if the image holds it as real memory. *)

val real_ranges : t -> (int * int) list
(** Half-open byte ranges of real data, ascending. *)

val range_run : t -> lo:int -> hi:int -> Page_run.t
(** Values of the real range [lo, hi) in page order as a shared view —
    O(log parts) however many pages the range spans.  Raises [Failure]
    on a page the image does not hold. *)

(** {2 Restore} *)

val restore : Host.t -> t -> Proc.t
(** Rebuild the process on a host from the image alone: a fresh space
    via {!Address_space.import_image} (cold extents and residency
    preserved), imaginary segments re-registered with the pager from
    [backings], the working set and dirty log replayed.  Synchronous
    mechanism only — insertion cost, host adoption and scheduling are
    the caller's (InsertProcess's / Checkpoint's) job. *)
