(** The push transfer engine: pre-copy (paper §5, Theimer's V system
    baseline) and the hybrid push/pull (Hines & Gopalan).

    The process keeps executing at the source while rounds push pages
    ahead of it, each round re-sending what the previous one left dirty.
    When a round leaves little enough dirt (or the round budget is spent)
    the process is frozen, its image captured and the final message —
    Core, residual Data, IOUs — shipped.  The destination stages round
    pages in a segment store and assembles the insertion RIMAS with
    {!Image_wire.assemble}.

    The two strategies differ only in which runs are pushed and which are
    pulled:

    - {b pre-copy} pushes every real page in round 1, and the freeze
      residual is the dirty log plus every real page no round pushed, so
      nothing is left to pull;
    - {b hybrid} pushes only the estimated working set (pages referenced
      within [window_ms]) in round 1; the freeze residual is the dirty
      log, and the cold tail — real pages no round pushed — is banked on
      the manager's backing server and shipped as IOUs, pulled on
      reference. *)

type Accent_ipc.Message.payload +=
  | Mig_push_pages of {
      proc_id : int;
      round : int;
      src_port : Accent_ipc.Port.id;  (** where the acknowledgement goes *)
    }  (** memory object: round Data chunks, vaddr coordinates *)
  | Mig_push_ack of { proc_id : int; round : int }
  | Mig_push_final of {
      core : Accent_kernel.Context.core;
      handoff : Transfer_engine.handoff;
    }
      (** memory object: the residual as Data plus IOU chunks for the cold
          tail and any pre-existing imaginary regions, vaddr coordinates *)

type push_set =
  | All  (** pre-copy *)
  | Window of float  (** hybrid, recency window in ms *)

type t

val create : Transfer_engine.ctx -> t
(** Degraded paths (a page value vanishing mid-round, a page neither
    staged nor IOU-backed at insertion) abort that one migration with an
    {!Mig_event.Engine_abort} event instead of raising; a transport
    give-up or engine abort also clears the migration's staged pages and
    round state, so failed migrations leak nothing. *)

val start :
  t ->
  proc:Accent_kernel.Proc.t ->
  dest:Accent_ipc.Port.id ->
  push_set:push_set ->
  max_rounds:int ->
  threshold_pages:int ->
  handoff:Transfer_engine.handoff ->
  unit
(** Source side: push round 1 to the manager at [dest] while [proc] keeps
    running; each ack either pushes the drained dirty log as the next
    round or, once [max_rounds] is spent or at most [threshold_pages]
    are dirty, freezes and ships the final message. *)

val handle : t -> Accent_ipc.Message.t -> bool
(** Consume a push round, ack or final message arriving on the manager's
    port; [false] for any other payload. *)

val give_up_proc : Accent_ipc.Message.payload -> int option
(** The migration an abandoned round or final message belonged to; [None]
    for acks, whose loss only delays the next round decision. *)

val debug_stats : t -> (string * int) list
(** ["outbound"]: source round state; ["staged"]: destination staging
    stores. *)
