(** Everything measured about one migration trial.

    This module is the record's only writer.  Phase boundaries, fault and
    prefetch counts, dedup and checkpoint figures are a fold of the
    migration's {!Mig_event} stream ({!apply}, {!replay}); the traffic
    totals are one snapshot of the transfer monitor and the hosts'
    NetMsgServers ({!settle}).  Accessors derive the quantities the paper
    reports: phase durations, end-to-end time, byte and message-cost
    totals, prefetch hit ratios. *)

type outcome = Mig_event.outcome = Completed | Degraded | Aborted

val outcome_name : outcome -> string

type t = private {
  proc_name : string;
  strategy : Strategy.t;
  mutable requested_at : Accent_sim.Time.t option;
      (** migration request received by the source MigrationManager *)
  mutable excised_at : Accent_sim.Time.t option;
  mutable core_delivered_at : Accent_sim.Time.t option;
  mutable rimas_delivered_at : Accent_sim.Time.t option;
  mutable inserted_at : Accent_sim.Time.t option;
  mutable restarted_at : Accent_sim.Time.t option;
  mutable completed_at : Accent_sim.Time.t option;
  mutable excise : Accent_kernel.Excise.timings option;
  mutable insert_ms : float option;
  (* pre-copy strategy only *)
  mutable frozen_at : Accent_sim.Time.t option;
      (** the process stopped executing at the source (for the classic
          strategies this coincides with the request) *)
  (* checkpoint/restore (crash recovery only) *)
  mutable checkpointed_at : Accent_sim.Time.t option;
      (** a durable image of the process was saved *)
  mutable checkpoint_restored_at : Accent_sim.Time.t option;
      (** the process was rebuilt from its checkpoint *)
  mutable checkpoint_pages : int;  (** pages banked by the checkpoint *)
  mutable precopy_rounds : int;
  mutable precopy_bytes : int;  (** payload bytes shipped by the rounds *)
  (* destination-side execution accounting *)
  mutable dest_faults_zero : int;
  mutable dest_faults_disk : int;
  mutable dest_faults_imag : int;
  mutable prefetch_extra : int;
  mutable prefetch_hits : int;
  mutable remote_touched_pages : int;
  mutable remote_real_bytes_fetched : int;
      (** bytes of RealMem content physically moved to the new site,
          whether at migration time or by faulting *)
  (* traffic totals over the whole trial (filled by {!settle}) *)
  bytes_control : int;
  bytes_bulk : int;
  bytes_fault : int;
  bytes_retransmit : int;
      (** wire bytes burned resending fragments the network ate *)
  bytes_ack : int;  (** wire bytes of acknowledgement packets *)
  retransmits : int;  (** fragment retransmissions, both hosts *)
  transport_give_ups : int;
      (** messages the reliable transport abandoned, both hosts *)
  mutable dedup_pages_checked : int;
      (** page digests advertised to and checked by the destination *)
  mutable dedup_hits : int;
      (** of those, pages the destination's content store already held *)
  mutable dedup_bytes_elided : int;
      (** page-data bytes never sent because their digests hit *)
  network_messages : int;
  message_seconds : float;
      (** node time spent manipulating messages, summed over both hosts *)
  mutable outcome : outcome;
}

val create : proc_name:string -> strategy:Strategy.t -> t

(** {2 Building a report} *)

val apply : t -> Mig_event.t -> unit
(** The fold step: stamp or accumulate one event.  Destination fault and
    prefetch events count only between [Restarted] and [Outcome], the
    destination-execution window.  A [Transport_give_up] or
    [Engine_abort] impairs the outcome: [Aborted] if the process never
    restarted at the destination, [Degraded] if it did (an outcome
    already impaired stays as it is).  A migration registers this step on
    the bus as its route. *)

val replay : proc_id:int -> Mig_event.t list -> t option
(** Rebuild a report from an in-order event stream: create it from the
    [Requested] event for [proc_id], then {!apply} every event with that
    id.  [None] when the stream holds no such request. *)

val settle :
  t ->
  monitor:Accent_net.Transfer_monitor.t ->
  hosts:Accent_kernel.Host.t array ->
  t
(** A copy of the report holding one snapshot of the traffic totals: the
    monitor's bytes per class and message count, retransmissions, give-ups
    and message-handling time summed over [hosts].  Give-ups impair the
    copy's outcome by the same rule as {!apply}, which catches abandoned
    messages no migration event carried (a stray ack, a retried round).
    The argument is left as it was. *)

(** {2 Derived durations (seconds)} *)

val excise_seconds : t -> float

val rimas_transfer_seconds : t -> float
(** Excision end to RIMAS delivery — the paper's Table 4-5 quantity.  The
    two context messages travel concurrently, so this is not measured from
    Core delivery (under pure-IOU the small RIMAS often lands first). *)

val transfer_seconds : t -> float
(** Excision end to the later of the two deliveries. *)

val remote_execution_seconds : t -> float
val end_to_end_seconds : t -> float
(** Request to remote completion. *)

val downtime_seconds : t -> float
(** How long the program executed nowhere: freeze (or request, for the
    classic strategies, which stop the process immediately) to restart at
    the destination.  The metric pre-copy exists to minimise. *)

val transfer_plus_execution_seconds : t -> float
(** The sum Figure 4-2 compares across strategies. *)

val goodput_bytes : t -> int
(** Control + bulk + fault — the traffic the 1987 accounting knew about. *)

val bytes_total : t -> int
(** Goodput plus overhead — everything that crossed the wire. *)

val prefetch_hit_ratio : t -> float option

val pp_summary : Format.formatter -> t -> unit
