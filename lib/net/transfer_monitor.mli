(** Network traffic accounting.

    One monitor observes the link for a whole experiment and answers the
    questions behind Figures 4-3 and 4-5: how many bytes crossed the wire
    for each traffic class (Figure 4-3), and how many in each one-second
    bin of virtual time (Figure 4-5).  The bins are summed as bytes are
    recorded, so the monitor holds one int per class per virtual second,
    not a sample per message.  Counters can be reset at the start of a
    trial's measurement interval ("when the migration request is
    received by the MigrationManager"). *)

type t

val create : unit -> t

val record :
  t ->
  time:Accent_sim.Time.t ->
  category:Accent_ipc.Message.category ->
  bytes:int ->
  unit
(** Count [bytes] of the class at [time] (ms, not negative) into its total
    and into the bin of second [floor (time / 1000)]. *)

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

val bins_of : t -> Accent_ipc.Message.category -> int array
(** Bytes of the class per virtual second: element [i] sums the records
    at [i] s <= time < [i + 1] s.  The array runs from second 0 through
    the last second recorded, quiet seconds reading 0; [[||]] if nothing
    was recorded. *)

val reset : t -> unit
(** Zero all counters and bins. *)
