(** Everything measured about one migration trial.

    The MigrationManagers stamp phase boundaries as the trial progresses;
    the experiment layer adds traffic totals read from the transfer monitor
    when the relocated process completes.  Accessors derive the quantities
    the paper reports: phase durations, end-to-end time, byte and
    message-cost totals, prefetch hit ratios. *)

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

type t = {
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
  (* traffic totals over the whole trial (filled by the experiment layer) *)
  mutable bytes_control : int;
  mutable bytes_bulk : int;
  mutable bytes_fault : int;
  mutable bytes_retransmit : int;
      (** wire bytes burned resending fragments the network ate *)
  mutable bytes_ack : int;  (** wire bytes of acknowledgement packets *)
  mutable retransmits : int;  (** fragment retransmissions, both hosts *)
  mutable transport_give_ups : int;
      (** messages the reliable transport abandoned, both hosts *)
  mutable dedup_pages_checked : int;
      (** page digests advertised to and checked by the destination *)
  mutable dedup_hits : int;
      (** of those, pages the destination's content store already held *)
  mutable dedup_bytes_elided : int;
      (** page-data bytes never sent because their digests hit *)
  mutable network_messages : int;
  mutable message_seconds : float;
      (** node time spent manipulating messages, summed over both hosts *)
  mutable outcome : outcome;
}

val create : proc_name:string -> strategy:Strategy.t -> t

(** {2 Derived durations (seconds)} *)

val excise_seconds : t -> float
val core_transfer_seconds : t -> float
(** Excision end to Core delivery. *)

val rimas_transfer_seconds : t -> float
(** Excision end to RIMAS delivery — the paper's Table 4-5 quantity.  The
    two context messages travel concurrently, so this is not measured from
    Core delivery (under pure-IOU the small RIMAS often lands first). *)

val transfer_seconds : t -> float
(** Excision end to the later of the two deliveries. *)

val insert_seconds : t -> float
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

val overhead_bytes : t -> int
(** Retransmit + ack bytes added by the reliable transport. *)

val bytes_total : t -> int
(** Goodput plus overhead — everything that crossed the wire. *)

val prefetch_hit_ratio : t -> float option

val pp_summary : Format.formatter -> t -> unit
