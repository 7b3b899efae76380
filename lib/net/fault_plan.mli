(** A deterministic, seeded fault model for the shared link.

    Zayas measured copy-on-reference on an Ethernet where "reliable
    delivery is assumed": every fragment of {!Link} arrives intact, in
    order, exactly once.  A fault plan removes that assumption.  It is
    consulted once per fragment as the fragment leaves the medium and
    decides the fragment's fate: delivered, delivered-but-corrupted
    (payload damage a checksum will catch), delayed past its successors
    (bounded reordering), or dropped — either stochastically (i.i.d. or
    Gilbert–Elliott burst loss) or because a scheduled partition currently
    separates the two hosts.

    All randomness is drawn from one labelled {!Accent_util.Rng} stream,
    so a run is a pure function of the engine seed and the plan: the same
    seed and plan reproduce every drop, bit for bit.  The default plan
    ({!none}) draws nothing at all and delivers everything, so worlds that
    never configure a plan behave exactly as the seed repository did. *)

type loss =
  | No_loss
  | Iid of float  (** independent per-fragment loss probability *)
  | Gilbert_elliott of {
      p_good_to_bad : float;  (** per-fragment chance of entering a burst *)
      p_bad_to_good : float;  (** per-fragment chance of the burst ending *)
      loss_good : float;  (** loss probability in the good state *)
      loss_bad : float;  (** loss probability inside a burst *)
    }
      (** Two-state burst model: the chain advances one step per fragment,
          so mean burst length is [1 / p_bad_to_good] fragments. *)

type partition = {
  start_ms : float;
  duration_ms : float;
  between : (int * int) option;
      (** the host pair cut off from each other (order irrelevant);
          [None] cuts every pair *)
}
(** A scheduled partition: every fragment leaving the medium in
    [\[start_ms, start_ms + duration_ms)] between the named hosts is
    dropped.  The partition heals by itself — fragments after the window
    pass normally. *)

type t = {
  loss : loss;
  corrupt_prob : float;  (** payload corruption, caught by checksums *)
  reorder_prob : float;  (** chance a fragment is held back... *)
  reorder_max_ms : float;  (** ...by up to this much extra latency *)
  partitions : partition list;
}

val none : t
(** Deliver everything; consults no randomness. *)

val iid : float -> t
(** [iid p] drops each fragment independently with probability [p]. *)

val burst : ?mean_burst:float -> ?loss_bad:float -> float -> t
(** [burst p] is a Gilbert–Elliott plan whose {e long-run} loss rate is
    roughly [p], concentrated in bursts of mean length [mean_burst]
    (default 8 fragments) during which each fragment is lost with
    probability [loss_bad] (default 0.75). *)

val with_partition :
  ?between:int * int -> start_ms:float -> duration_ms:float -> t -> t
(** Add a scheduled partition to an existing plan. *)

val with_corruption : float -> t -> t
val with_reordering : ?max_ms:float -> float -> t -> t

val partitioned : t -> now_ms:float -> src:int -> dst:int -> bool
(** Is a partition between [src] and [dst] active at [now_ms]? *)

val is_clean : t -> bool
(** No loss, corruption, reordering or partitions configured. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-plan-per-line rendering, for
    [accentctl inspect]. *)

(** {2 Runtime state}

    A plan is pure configuration; [state] carries the RNG stream and the
    Gilbert–Elliott chain position, plus counters for reporting. *)

type fate =
  | Delivered
  | Corrupted  (** arrives, but its checksum will not verify *)
  | Dropped

type decision = { fate : fate; extra_delay_ms : float }

type state

val make : t -> rng:Accent_util.Rng.t -> state

val decide : state -> now_ms:float -> src:int -> dst:int -> decision
(** The fate of one fragment leaving the medium now.  Checks partitions
    first (no randomness), then loss, corruption and reordering in that
    order, drawing only the Bernoulli trials whose probability is
    non-zero — a clean plan consumes no randomness at all. *)

(** {2 Counters} *)

val decided : state -> int
val dropped : state -> int
val corrupted : state -> int
val delayed : state -> int
