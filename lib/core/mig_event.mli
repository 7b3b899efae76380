(** The migration event bus.

    Every observable moment of a migration — phase boundaries, pre-copy
    rounds, faults and prefetches at the destination, transport give-ups,
    the final outcome — is published as one typed event stamped with the
    virtual clock.  The transfer engine, the pager (via the
    MigrationManager's observer) and the reliable transport emit events
    here.  Each migration registers a fold step that the bus calls with
    every event carrying the migration's process id, before any subscriber
    sees it.  The bus knows nothing of what the step builds.

    Subscribers see every event on the bus, including events for processes
    no migration is tracking (e.g. faults taken by a process that never
    moved are {e not} published — only hosts' pagers observed by a
    MigrationManager feed the bus). *)

type outcome =
  | Completed  (** the relocated process ran to completion *)
  | Degraded
      (** the process restarted at the destination, but the reliable
          transport abandoned at least one message along the way (or the
          pager killed the process after an unanswerable fault) — the
          migration survived the network, impaired *)
  | Aborted
      (** the execution context never reached the destination; the process
          was never restarted there *)

val outcome_name : outcome -> string

type fault_kind = Fault_zero | Fault_disk | Fault_imaginary
type prefetch_kind = Prefetch_issued | Prefetch_hit

type kind =
  | Requested of { proc_name : string; strategy : Strategy.t }
      (** the source MigrationManager accepted the migration *)
  | Excised of Accent_kernel.Excise.timings
      (** ExciseProcess finished dismantling the source context *)
  | Core_delivered  (** the Core context message reached the destination *)
  | Rimas_delivered of { data_bytes : int }
      (** the RIMAS landed; [data_bytes] is its physically-shipped part *)
  | Inserted of { insert_ms : float }
      (** InsertProcess rebuilt the process ([insert_ms] is the modelled
          trap cost) *)
  | Restarted  (** the reincarnated process is about to resume *)
  | Frozen of { residual_bytes : int }
      (** pre-copy only: execution stopped at the source; [residual_bytes]
          is the dirty remainder the final message must carry *)
  | Precopy_round of { round : int; bytes : int }
      (** a pre-copy round was sent with [bytes] of page data *)
  | Fault of fault_kind  (** the observed host's pager took a fault *)
  | Prefetch of prefetch_kind
      (** an extra page was installed by prefetch, or a previously
          prefetched page was referenced *)
  | Dedup_digests of { pages : int; hits : int }
      (** dedup: the destination checked an advertisement of [pages] page
          digests and already held [hits] of them in its content store *)
  | Dedup_elided of { bytes : int }
      (** dedup: the source withheld [bytes] of page data whose digests
          the destination reported as already held *)
  | Checkpointed of { pages : int; new_bytes : int }
      (** {!Checkpoint.save} banked a durable process image: [pages] page
          digests recorded, of which [new_bytes] of page data were not
          already in the durable store (the rest deduplicated) *)
  | Restored of { pages : int }
      (** {!Checkpoint.restore} rebuilt the process; every one of its
          [pages] digest-resolved pages passed the integrity check *)
  | Transport_give_up
      (** the reliable transport abandoned a migration message *)
  | Engine_abort of { reason : string }
      (** a transfer engine hit an unrecoverable inconsistency (e.g. a
          page that should have been staged never arrived) and abandoned
          the migration instead of crashing; the fold marks the migration
          [Aborted] (never restarted) or [Degraded] *)
  | Outcome of { outcome : outcome; remote_touched_pages : int }
      (** the relocated process finished its remote execution *)
  | Auto_threshold of { src : int; spread : float }
      (** the {!Auto_migrator} saw the load spread between the most and
          least loaded host cross its imbalance threshold; [src] is the
          overloaded host.  [proc_id] is [-1]: no process is chosen yet. *)
  | Auto_candidate of { proc_name : string; src : int; dst : int }
      (** the {!Auto_migrator} chose [proc_name] (the event's [proc_id])
          to move from host [src] to host [dst] — the decision that
          explains the [Requested] event that follows *)

type t = {
  at : Accent_sim.Time.t;
  proc_id : int;  (** the migrating (or faulting) process *)
  kind : kind;
}

(** {2 The bus} *)

type bus

val create_bus : unit -> bus

val subscribe : bus -> (t -> unit) -> unit
(** Add an observer; it sees every published event, in publish order. *)

val subscribe_cleanup : bus -> (t -> unit) -> unit
(** Add an observer that sees only [Transport_give_up] and
    [Engine_abort] events.  Each host's transfer engine and dedup
    negotiator use this channel to drop an abandoned migration's staged
    state, so their number never taxes the fault-path publish loop: with a
    thousand-host world sharing one bus, full-stream delivery would put
    every one of their closures in front of every page-fault event. *)

val register : bus -> proc_id:int -> (t -> unit) -> unit
(** Route events for [proc_id] to a fold step: each published event with
    that id is passed to it before any subscriber sees the event.  A
    later registration for the same process replaces the earlier one
    (re-migration).

    The route rule: a route ends with the [Outcome] event, which drops
    it.  An {e impaired} migration's route stays — a checkpoint restore
    may still stamp it — until an [Outcome] or the next registration
    ends it, and neither may ever come.  A migration is impaired when
    its route saw a [Transport_give_up] or [Engine_abort] (an Aborted
    migration nothing restored), or when the pager killed the relocated
    process after an unanswerable fault (a Degraded one: the fault's
    give-up belongs to no migration message, so the bus never hears of
    it and only the process's [failed] flag records it).  Any other
    route still held once the world is quiescent belongs to a migration
    that stalled without a word: a leak, which [World.audit] reports. *)

val tracked : bus -> proc_id:int -> bool
(** Whether a route is registered for [proc_id]: a migration of
    it was requested and has not yet published its [Outcome]. *)

val open_routes : bus -> int list
(** The proc ids, ascending, whose route has seen neither an [Outcome]
    nor a [Transport_give_up]/[Engine_abort].  At quiescence each must
    be a process the pager killed. *)

val publish : bus -> t -> unit
(** Pass the event to its process's fold step (if one is registered),
    then notify subscribers. *)

(** {2 Trace output} *)

val kind_name : kind -> string

val jsonl_writer : out_channel -> t -> unit
(** A subscriber that appends [to_json] lines to the channel. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line rendering, e.g.
    ["  1234.500 ms  proc 7  precopy-round 2 (65536 B)"]. *)
