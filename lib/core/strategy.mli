(** Context-transfer strategies (paper §4).

    - {b Pure-copy}: the conventional method — every byte of RealMem is
      physically shipped at migration time (the NoIOUs bit forbids
      NetMsgServer caching).
    - {b Pure-IOU}: the copy-on-reference method — the MigrationManager
      leaves NoIOUs clear, the source NetMsgServer caches the data and
      passes IOUs, and pages cross the wire only when touched.
    - {b Resident-set}: the middle ground — pages resident at excision are
      shipped physically (an approximation of the working set), the rest
      travel as IOUs backed by the MigrationManager itself.

    Prefetch applies to the lazy strategies: each imaginary fault asks for
    that many additional contiguous pages.

    Beyond the paper's three, {b working-set} refines resident-set with a
    recency window, and two push strategies run the process at the
    source while pages are shipped ahead of it:
    {b pre-copy} (Theimer et al., the V system), the comparison baseline
    the paper discusses in §5, ships the address space iteratively,
    re-sending pages dirtied during each round, and freezes the process
    only for the final residual.  It minimises downtime rather than total
    cost — and, as Zayas observes, both hosts still pay the full
    transfer.  {b Hybrid} pushes only the working set the same way and
    leaves the rest to be pulled on reference. *)

type transfer =
  | Pure_copy
  | Pure_iou
  | Resident_set
  | Working_set of { window_ms : float }
      (** §4.2.2 treats the resident set as an approximation of Denning's
          working set and finds it a poor predictor; this strategy ships
          the {e estimated working set} instead — the pages referenced in
          the last [window_ms] of source execution — physically, and IOUs
          for everything else.  Only meaningful for live migrations (a
          process migrated before it ever ran has an empty working set and
          this degenerates to pure IOU). *)
  | Pre_copy of {
      max_rounds : int;  (** freeze after this many rounds regardless *)
      threshold_pages : int;
          (** freeze once a round leaves at most this many dirty pages *)
    }
  | Hybrid of {
      max_rounds : int;  (** freeze after this many rounds regardless *)
      threshold_pages : int;
          (** freeze once a round leaves at most this many dirty pages *)
      window_ms : float;
          (** the recency window defining the pushed working set *)
    }
      (** The post-copy-style middle ground (Hines & Gopalan's push/pull,
          CRIU lazy-pages): push only the {e estimated working set} —
          pages referenced within [window_ms] — in pre-copy-style rounds
          while the process keeps executing, re-sending pages dirtied per
          round; at the freeze, ship the residual dirty pages physically
          and leave every never-pushed page as an IOU against the
          manager's backing server, to be pulled on reference.  Bounds
          freeze downtime like pre-copy while moving only
          referenced-or-dirty bytes eagerly like copy-on-reference. *)

type t = { transfer : transfer; prefetch : int }

val pure_copy : t
val pure_iou : ?prefetch:int -> unit -> t
val resident_set : ?prefetch:int -> unit -> t

val working_set : ?window_ms:float -> ?prefetch:int -> unit -> t
(** Default window: 5000 ms. *)

val pre_copy : ?max_rounds:int -> ?threshold_pages:int -> unit -> t
(** Defaults: at most 5 rounds, freeze below 8 dirty pages. *)

val hybrid :
  ?max_rounds:int -> ?threshold_pages:int -> ?window_ms:float -> unit -> t
(** Defaults: at most 5 rounds, freeze below 8 dirty pages, 5000 ms
    recency window. *)

val paper_prefetch_values : int list
(** 0, 1, 3, 7, 15 — the sweep of §4.3.3. *)

val is_live : t -> bool
(** Whether the strategy needs the process executing at the source when
    the migration starts: working-set estimates its window from source
    references, and pre-copy and hybrid push rounds against a running
    process.  Drivers start such a process before migrating it. *)

val name : t -> string
(** e.g. ["iou+pf3"], ["copy"], ["rs"]. *)
