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
      report : Report.t;
      on_complete : (Accent_kernel.Proc.t -> Report.t -> unit) option;
    }
      (** memory object: the residual as Data plus IOU chunks for the cold
          tail and any pre-existing imaginary regions, vaddr coordinates *)

val create : Transfer_engine.ctx -> Transfer_engine.t
(** Claims [Pre_copy] and [Hybrid].  Degraded paths (a page value
    vanishing mid-round, a page neither staged nor IOU-backed at
    insertion) abort that one migration with an {!Mig_event.Engine_abort}
    event instead of raising; a transport give-up or engine abort also
    clears the migration's staged pages and round state, so failed
    migrations leak nothing. *)
