(** Network traffic accounting.

    One monitor observes the link for a whole experiment and answers the
    questions behind Figures 4-3 and 4-5: how many bytes crossed the wire
    for each traffic class, and at what rate over time.  Counters can be
    reset at the start of a trial's measurement interval ("when the
    migration request is received by the MigrationManager"). *)

type t

val create : unit -> t

val record :
  t ->
  time:Accent_sim.Time.t ->
  category:Accent_ipc.Message.category ->
  bytes:int ->
  unit

val note_message : t -> category:Accent_ipc.Message.category -> unit
(** Count one network message (for the message-count comparison of
    §4.4.2). *)

val bytes_of : t -> Accent_ipc.Message.category -> int
val bytes_total : t -> int

val goodput_bytes : t -> int
(** Control + bulk + fault bytes — the traffic the 1987 accounting knew
    about. *)

val overhead_bytes : t -> int
(** Retransmit + ack bytes — what the reliable transport adds on top of
    goodput.  Zero whenever the ARQ layer is off or the link is clean. *)

val messages_total : t -> int

val series_of : t -> Accent_ipc.Message.category -> Accent_util.Series.t
(** Byte arrivals over time for the class (times in milliseconds). *)

val set_record_series : t -> bool -> unit
(** Recording the time series retains one sample per transmitted
    message — what a figure over a single migration wants, and what a
    datacenter churn run must turn off to keep its live heap a function
    of cluster size.  Byte and message counters are unaffected. *)

val reset : t -> unit
(** Zero all counters and series. *)
