(** Wire-message building from first-class process images.

    Image→chunk builders for the push rounds of {!Transfer_engine} —
    round Data chunks and the working-set estimate read from the live
    space, the freeze residual and cold tail derived from a captured
    {!Accent_kernel.Proc_image.t} by run subtraction against the pages
    the rounds already pushed — plus the one assembler that turns the
    destination's staged round pages and the final message's IOU chunks
    into the insertion RIMAS.

    A migration's sent set is a plain [unit Interval_map.t] over page
    indices, owned by the engine: every round sets one run per chunk it
    pushed, and the freeze reads only its gaps
    ({!Accent_mem.Interval_map.fold_pieces}) inside the image's real
    ranges — never a per-page probe over the address space. *)

open Accent_mem
open Accent_kernel

exception Abort of string
(** A migration cannot proceed: a page value vanished mid-round, or a
    page was neither staged nor IOU-backed at assembly.  Raised by the
    builders below; {!Transfer_engine} catches it at its protocol
    boundaries and turns it into an {!Mig_event.Engine_abort} event — it
    must never escape to the simulation loop. *)

(** {2 Data chunks} *)

val page_runs_of_pages : Page.index list -> (Page.index * Page.index) list
(** The pages, sorted and deduplicated, coalesced into maximal closed
    runs, ascending. *)

val vaddr_data_chunks :
  Address_space.t -> Page.index list -> Accent_ipc.Memory_object.t
(** [data_chunks] over the live space — what push rounds read. *)

val image_data_chunks :
  Proc_image.t -> missing:string -> Page.index list -> Accent_ipc.Memory_object.t
(** [data_chunks] over a captured image — what the freeze reads. *)

val shippable_ws_pages :
  Proc.t -> now:Accent_sim.Time.t -> window_ms:float -> Page.index list
(** The live process's pages referenced within [window_ms] before [now]
    that actually carry data (resident or paged out) — the estimated
    working set a working-set RIMAS keeps physical and a hybrid first
    round pushes.  Must be read before excision dismantles the space. *)

val real_range_chunks : Address_space.t -> Accent_ipc.Memory_object.t
(** One Data chunk per Real range of the live space, each carrying the
    range's values as one shared view ({!Address_space.real_runs}) — what
    a pre-copy first round ships.  No page list, no page array, no value
    copied. *)

val unsent_runs :
  Proc_image.t -> sent:unit Interval_map.t -> (Page.index * Page.index) list
(** Closed page runs of the image's real memory that no round ever
    pushed, ascending: the gaps [sent] leaves in each real range — the
    run subtraction at the heart of the hybrid cold tail and the pre-copy
    residual.  O(real ranges × log sent runs + pieces), independent of
    the address-space page count. *)

(** {2 IOU chunks} *)

val iou_chunks_of_image : Proc_image.t -> Accent_ipc.Memory_object.t
(** The image's imaginary runs as vaddr-coordinate IOU chunks —
    pre-existing ImagMem (e.g. on a second migration) the final message
    must carry. *)

val cold_iou_chunks :
  Accent_net.Backing_server.t ->
  Proc_image.t ->
  sent:unit Interval_map.t ->
  Accent_ipc.Memory_object.t
(** Bank every real run the rounds never pushed on the given backing
    server (one adopted extent per run) and return IOU chunks for the
    destination to pull on reference — the hybrid cold tail.
    O({!unsent_runs}), never O(pages). *)

val precopy_residual_chunks :
  Proc_image.t ->
  sent:unit Interval_map.t ->
  written:Page.index list ->
  Accent_ipc.Memory_object.t
(** The pre-copy residual: the dirty log merged with {!unsent_runs} into
    one page set, each maximal run read out of the image as one shared
    view.  Chunk boundaries are identical to coalescing the equivalent
    page list. *)

(** {2 Destination side: assembly} *)

val assemble :
  Page.value Accent_util.Int_tbl.t ->
  amap:Accent_mem.Amap.t ->
  iou_chunks:Accent_ipc.Memory_object.t ->
  Accent_ipc.Memory_object.t
(** The insertion RIMAS, in collapsed coordinates, from the staged pages
    (keyed by page index): every maximal run of staged pages becomes one
    Data chunk, and every other page of a [Real_mem] or [Imag_mem] range
    is covered from [iou_chunks] — one never-coalescing [Interval_map] of
    the chunks by address, walked with
    {!Accent_mem.Interval_map.fold_pieces} so the cover splits on chunk
    boundaries.  A page neither staged nor IOU-backed raises {!Abort}.
    O(AMap ranges + staged pages log staged pages + IOU chunks × log IOU
    chunks + IOU pieces), never a probe of every page of a range. *)
