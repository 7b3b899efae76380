(** Sparse per-process virtual address spaces.

    An address space is a set of validated regions over the 4 GB range,
    each backed one of three ways — untouched zero-fill, real local data
    (in a physical frame or on the paging disk), or an imaginary segment
    reached through IPC — plus one page table holding the per-page state
    (location and touched bit, packed in one int) of every located or
    touched page.  This is the object that migration exists to move.

    The module provides mechanism only: page classification, fault
    resolution steps, eviction.  Fault {e costs} and the decision of which
    fault to take live in the kernel's Pager. *)

type t

type backing =
  | Zero  (** validated, conceptually zero-filled, never touched *)
  | Real  (** materialised local data *)
  | Imaginary of { segment_id : int; base : int }
      (** an IOU: data lives behind the segment's backing port; the segment
          offset of address [a] in the region is [base + a] *)

type presence =
  | Resident of Phys_mem.frame_id
  | Paged_out
      (** on the paging disk, in an individual block or a cold extent;
          use the fault resolvers and {!page_value} to reach the
          contents *)
  | Zero_pending  (** FillZero fault will materialise it *)
  | Imaginary_pending of { segment_id : int; offset : int }
      (** offset is the byte offset of the page within the segment *)
  | Invalid

val create : id:int -> mem:Phys_mem.t -> disk:Paging_disk.t -> t
(** A fresh, empty (all-BadMem) space bound to one host's physical memory
    and paging disk.  [id] must be unique per simulation; the host registers
    the space with its eviction dispatcher. *)

val id : t -> int

(** {2 Building the space} *)

val validate_zero : t -> Vaddr.range -> unit
(** Validate a page-aligned range as zero-filled memory.  Raises
    [Invalid_argument] if it overlaps existing regions or is unaligned. *)

val map_imaginary : t -> Vaddr.range -> segment_id:int -> offset:int -> unit
(** Map a page-aligned range to an imaginary segment: the byte at range
    offset [k] corresponds to segment offset [offset + k].  [offset] must be
    page-aligned.  Excised address spaces are shipped {e collapsed} into a
    contiguous segment (paper §3.1), so segment offsets generally differ
    from virtual addresses. *)

val install_run :
  ?segment:string -> t -> addr:int -> Page_run.t -> resident:bool -> unit
(** Install a run of page values starting at the page-aligned [addr], one
    page per value, without materialising any of them.  A non-resident
    run of any length over fresh (non-Real) territory is {e adopted}
    whole as one cold extent — no copy, and a binary search over the
    space's cold extents finds it on a fault — so the caller must treat
    the run as shared from here on.  [segment] labels the Accent VM
    segment this data belongs to (program text, a mapped file...) purely
    for the excision cost model; unlabelled installs count as one
    anonymous segment. *)

val install_values :
  ?segment:string -> t -> addr:int -> Page.value array -> resident:bool -> unit
(** {!install_run} over a defensive copy of the array (array-edge
    convenience for callers that keep writing to their buffer). *)

val install_bytes :
  ?segment:string -> t -> addr:int -> bytes -> resident:bool -> unit
(** Bytes-edge convenience over {!install_values}: split the buffer into
    pages (a trailing partial page is zero-padded) and install each. *)

(** {2 Classification} *)

val classify : t -> int -> Accessibility.t
val presence_of_page : t -> Page.index -> presence

val build_amap : t -> Amap.t
(** Accessibility snapshot of the whole space (pure; the time cost of AMap
    construction is the kernel's concern). *)

(** {2 Fault resolution steps (called by the Pager)} *)

val resolve_zero_fault : t -> Page.index -> unit
(** Materialise a [Zero_pending] page as a zero-filled resident frame. *)

val resolve_disk_fault : t -> Page.index -> unit
(** Bring a [Paged_out] page into a frame; frees its disk block, if it
    has one. *)

val resolve_imaginary_fault : t -> Page.index -> Page.value -> unit
(** Install the value that arrived from the backing port, making the page
    resident real memory (a subsequent page-out goes to the local disk, as
    in the paper). *)

val reference : t -> Page.index -> bool
(** The process referenced this page: mark it touched (see
    {!touched_pages}) and answer [true] iff it is resident, bumping its
    frame's LRU recency.  One page-table probe; a reference to a page
    already touched allocates nothing.  On [false] the caller classifies
    the page with {!presence_of_page} and takes the fault. *)

(** {2 Page access} *)

val page_value : t -> Page.index -> Page.value option
(** A materialised page's value, wherever it lives — no bytes are copied
    or generated; [None] for zero-pending (all zeros), imaginary or
    invalid pages. *)

val real_runs : t -> (int * Page_run.t) list
(** [(lo, run)] for every Real range, ascending — {!range_run} over each
    range, but sharing a single overlay preparation across all of them
    (what a pre-copy first round reads).  Raises [Failure] if any Real
    page has no materialised value. *)

(** {2 Process-image export / import}

    The address-space slice of a first-class process image: every backed
    range with its page values {e and} where each page lives, so a space
    can be rebuilt elsewhere with the same residency and the same cold
    extents — no per-page table entries or disk blocks for pages
    that never had them, and no page bytes materialised (symbolic values
    stay symbolic). *)

type page_home =
  | Home_resident  (** in a physical frame *)
  | Home_disk  (** in an individual paging-disk block *)
  | Home_cold  (** held in a cold extent *)

type image_run =
  | Img_zero of { lo : int; hi : int }
  | Img_real of {
      lo : int;
      run : Page_run.t;
      homes : (int * page_home) list;
          (** run-length encoded, in page order: [(pages, home)] *)
    }
  | Img_imag of { lo : int; hi : int; segment_id : int; offset : int }
      (** [offset] is the segment offset of address [lo] *)

val export_image : t -> image_run list
(** Snapshot every backed range in increasing address order — O(cold
    parts + materialised pages + ranges), {e not} O(space): cold extents
    are shared into the image as sub-views and homes travel run-length
    encoded, so no per-page array is ever built. *)

val import_image : t -> image_run list -> unit
(** Rebuild the exported layout into an {e empty} space: cold stretches
    become cold extents (adopted as views of the image's
    runs), disk pages take disk blocks, resident pages take frames
    (possibly evicting).  Imaginary runs are remapped; registering their
    backing ports with the pager is the caller's job.
    [image_equal (export_image (import_image t runs)) runs] for any
    exported [runs].  Raises [Invalid_argument] if the space already has
    validated regions. *)

val image_equal : image_run list -> image_run list -> bool
(** Content equality, independent of how each run happens to be sliced. *)

val page_data : t -> Page.index -> Page.data option
(** [Option.map Page.to_bytes (page_value t idx)]: a fresh materialised
    copy, for bytes-edge callers. *)

val write_page : t -> Page.index -> Page.value -> unit
(** Store a new value into a resident page (marks the frame dirty).
    Raises if the page is not resident. *)

val evict_page : t -> Page.index -> Page.value -> dirty:bool -> unit
(** Eviction callback: the named resident page lost its frame; record its
    value on the paging disk. *)

(** {2 Inventory} *)

val resident_pages : t -> (Page.index * Phys_mem.frame_id) list
(** The resident set, ascending by page: a sorted walk of the space's own
    page table. *)

val resident_page_count : t -> int
(** [List.length (resident_pages t)] in O(1): the space counts its own
    resident pages. *)

val resident_bytes : t -> int
val real_bytes : t -> int
(** Bytes of materialised (RealMem) data, resident or on disk. *)

val zero_bytes : t -> int
(** Bytes validated as zero-fill and still untouched (RealZeroMem). *)

val imag_bytes : t -> int
val total_bytes : t -> int
(** All validated bytes: Real + RealZero + Imag. *)

val real_ranges : t -> (int * int) list
(** Half-open byte ranges currently backed by real data. *)

val imag_segments : t -> (int * int) list
(** [(segment_id, remaining_bytes)] for every imaginary segment that still
    backs part of the space. *)

val region_count : t -> int
(** Number of distinct intervals in the region map — the fragmentation that
    makes Accent AMap construction expensive. *)

val vm_segment_count : t -> int
(** Number of distinct VM segment labels (code, stack, mapped files...)
    the space's installs carried: a label counts once however many runs
    carry it, unlabelled installs share one label, and an imported
    image is one segment. *)

val vm_segment_labels : t -> string list
(** The distinct labels {!vm_segment_count} counts, newest first. *)

val touched_pages : t -> int
(** Distinct pages referenced via {!reference} since creation; {!destroy}
    keeps the count. *)

val pages_materialized : t -> int

val destroy : t -> unit
(** Free all frames and disk blocks; the space becomes empty. *)
