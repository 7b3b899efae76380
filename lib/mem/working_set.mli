(** Denning working-set estimation (CACM 1968), the model the paper cites
    when treating resident sets as working-set approximations (§4.2.2).

    Feeds on the reference stream of a process and answers "which pages were
    touched in the last τ time units".  Used by the resident-set analysis
    and by the ablation that asks how quickly working sets drift.

    Queries cost O(answer), not O(lifetime footprint): pages sit on a
    recency-ordered list (most recent at the head), {!reference} is an
    O(1) move-to-front, and an in-window query walks exactly the
    prefix it returns.  Entries older than the largest window ever
    queried are pruned from the list amortized; a query reaching
    further back than any prior prune falls back to an exhaustive
    fold, so every answer is identical to the naive scan's.

    The list is flat: each page ever referenced owns one slot in
    parallel [int]/[float] arrays (page, last reference, prev, next;
    slot 0 is the sentinel), found through an {!Accent_util.Int_tbl}
    slot map.  A reference allocates nothing once the page has a slot;
    a first reference adds one slot-map entry and may double the
    arrays. *)

type t

val create : window:Accent_sim.Time.t -> t
(** [window] is τ. *)

val window : t -> Accent_sim.Time.t

val reference : t -> clock:float array -> Page.index -> unit
(** Record a reference at the time in [clock]'s one slot, the engine's
    clock cell ({!Accent_sim.Engine.clock}) on the pager's path, so the
    call boxes no float.  Times must be non-decreasing. *)

val size_at : t -> time:Accent_sim.Time.t -> int
(** Number of distinct pages referenced in [time - window, time]. *)

val pages_at : t -> time:Accent_sim.Time.t -> Page.index list
(** The working set itself, sorted. *)

val pages_within :
  t -> time:Accent_sim.Time.t -> window:Accent_sim.Time.t -> Page.index list
(** Like {!pages_at} but with an explicit τ instead of the estimator's
    own. *)

val references : t -> int
(** Total references recorded. *)

val distinct_pages : t -> int
(** Distinct pages ever referenced. *)

(** {2 Process-image export / import} *)

type snapshot = {
  entries : (Page.index * Accent_sim.Time.t) list;
      (** every page ever referenced with its last-reference time,
          ascending by (time, page) *)
  snap_refs : int;  (** total reference count at export *)
}

val export : t -> snapshot
(** The recency state as plain data — what migration must carry for the
    destination's working-set estimator to answer exactly as the
    source's would have. *)

val import : t -> snapshot -> unit
(** Replay a snapshot into a {e fresh} estimator: afterwards every
    [pages_at]/[pages_within]/[size_at]/[references]/[distinct_pages]
    answer matches the exported set's.  Raises [Invalid_argument] if the
    estimator has already seen references. *)
