(** The byte-transfer comparison of Figure 4-3, replayed on a lossy wire.

    Zayas compared pure-copy against copy-on-reference on an Ethernet
    assumed reliable.  This sweep re-runs that comparison with the
    {!Accent_net.Reliable} transport enabled and i.i.d. fragment loss
    stepped from 0 to 10%: how much of copy-on-reference's byte advantage
    survives when every fragment — bulk train or fault round-trip — must
    be acknowledged, and lost ones retransmitted?

    The 0% row is not the seed repository's reliable baseline: the ARQ
    stays on, so it isolates the pure acknowledgement overhead; the
    additional cost of each non-zero rate is then entirely retransmission
    (plus the waiting the retransmit timers impose on end-to-end time). *)

type point = {
  loss_pct : float;
  strategy : Accent_core.Strategy.t;
  report : Accent_core.Report.t;
}

type t = {
  spec : Accent_workloads.Spec.t;
  seed : int64;
  points : point list;  (** strategy-major, loss ascending within *)
}

val run :
  ?seed:int64 ->
  ?spec:Accent_workloads.Spec.t ->
  ?rates_pct:float list ->
  unit ->
  t
(** Pure-copy, pure-IOU and hybrid trials of [spec] (default PM-Start,
    the migration the paper uses for its traffic figures) at each loss
    rate.
    One seed, shared across the grid: differences between cells are the
    loss rate and nothing else. *)

val to_csv : t -> string
(** Long-format rows: strategy, loss_pct, goodput_bytes, retransmit_bytes,
    ack_bytes, total_bytes, retransmits, end_to_end_s, outcome. *)

val render : t -> string
(** Text table of the same grid. *)
