(** The transfer engine: every strategy of {!Strategy.transfer}.

    The six strategies differ in two decisions only: whether push rounds
    run before the freeze, and what the final leg carries.  {!start}
    makes both with one exhaustive match on {!Strategy.transfer} — adding
    a strategy means adding a constructor, and the compiler points at
    that match.

    - {b pure-copy}, {b pure-IOU}, {b resident-set} and {b working-set}
      are the zero-round case: the process freezes at once and the final
      leg is two concurrent messages, the Core (microstate, PCB, port
      rights, AMap) and the RIMAS.  Pure-copy ships the whole RIMAS as
      data with NoIOUs set; pure-IOU leaves NoIOUs clear, so the
      NetMsgServers cache the data and pass IOUs; resident-set keeps the
      resident pages physical and banks everything else on the manager's
      backing server as IOUs; working-set does the same with the pages
      referenced within its window (read from the live process before
      capture).
    - {b pre-copy} (paper §5, Theimer's V system baseline) and {b hybrid}
      (Hines & Gopalan) push rounds while the process keeps executing,
      each re-sending what the previous one left dirty, then freeze and
      ship one final message: the Core and the residual.  Pre-copy pushes
      every real page in round 1 and its residual carries every page no
      round pushed; hybrid pushes only the pages referenced within its
      window and leaves the cold tail as IOUs on the backing server,
      pulled on reference.

    Every strategy takes the same freeze path: wait out any in-flight
    fault, read the live space, {!Accent_kernel.Excise.capture}, build the
    final leg, {!Accent_kernel.Excise.dissolve}, send.

    The destination keeps one entry per migration: the classic pair's
    halves in whichever order they arrive, push round pages staged by
    page index until {!Image_wire.assemble} turns them and the final
    message into the insertion RIMAS.  Once the Core and the RIMAS are
    both in hand the engine runs InsertProcess and restarts the process.
    An arrival for a process no migration is tracking
    ({!Mig_event.tracked}) is dropped with a warning instead of parking.

    The engine only reads the {!Report} it hands along (the record is
    private to its module): it publishes {!Mig_event} events on the world
    bus, and the migration's route, {!Report.apply}, folds them into the
    live report. *)

type handoff = {
  report : Report.t;
  prefetch : int;
  on_complete : (Accent_kernel.Proc.t -> Report.t -> unit) option;
  on_restart : (Accent_kernel.Proc.t -> unit) option;
}
(** The destination-bound part of a migration request: every final
    context message (a classic Core, a push final) carries it whole, and
    insertion consumes it.  No field counts toward any message's wire
    size. *)

type Accent_ipc.Message.payload +=
  | Mig_core of { core : Accent_kernel.Context.core; handoff : handoff }
  | Mig_rimas of { proc_id : int }
        (** memory object: the RIMAS, collapsed coordinates *)
  | Mig_push_pages of {
      proc_id : int;
      round : int;
      src_port : Accent_ipc.Port.id;  (** where the acknowledgement goes *)
    }  (** memory object: round Data chunks, vaddr coordinates *)
  | Mig_push_ack of { proc_id : int; round : int }
  | Mig_push_final of { core : Accent_kernel.Context.core; handoff : handoff }
      (** memory object: the residual as Data plus IOU chunks for the cold
          tail and any pre-existing imaginary regions, vaddr coordinates *)

type ctx = {
  host : Accent_kernel.Host.t;
  port : Accent_ipc.Port.id;  (** the manager's command port *)
  backing : Accent_net.Backing_server.t;
      (** the manager's own backing server (resident-set/working-set IOUs,
          the hybrid cold tail) *)
  bus : Mig_event.bus;
  dedup : Dedup.t;
      (** the manager's digest-first negotiator; page-data sends go through
          {!Dedup.send} and arrivals through {!Dedup.resolve} *)
}
(** The manager-side capabilities the engine closes over. *)

type t

val create : ctx -> t
(** Degraded paths (a page value vanishing mid-round, a page neither
    staged nor IOU-backed at insertion, an unresolvable digest) abort that
    one migration with an {!Mig_event.Engine_abort} event instead of
    raising; a transport give-up or engine abort also drops the
    migration's round state and destination entry, so failed migrations
    leak nothing. *)

val start :
  t ->
  proc:Accent_kernel.Proc.t ->
  dest:Accent_ipc.Port.id ->
  transfer:Strategy.transfer ->
  handoff:handoff ->
  unit
(** Source side: migrate [proc] to the manager at [dest].  Push strategies
    send round 1 while [proc] keeps running; each ack either pushes the
    drained dirty log as the next round or, once [max_rounds] is spent or
    at most [threshold_pages] are dirty, freezes.  The classic strategies
    freeze at once. *)

val handle : t -> Accent_ipc.Message.t -> bool
(** Consume a context message, push round, ack or push final arriving on
    the manager's port; [false] for any other payload. *)

val give_up_proc : Accent_ipc.Message.payload -> int option
(** The migration an abandoned context message or push round belonged to;
    [None] for acks, whose loss only delays the next round decision. *)

val emit : ctx -> proc_id:int -> Mig_event.kind -> unit
(** Publish an event stamped with the host's current virtual time. *)

val debug_stats : t -> (string * int) list
(** ["outbound"]: source push round state; ["inbound"]: destination
    entries (a parked classic half, staged push rounds). *)

val partial_rimas :
  Accent_net.Backing_server.t ->
  Accent_kernel.Excise.excised ->
  keep_pages:Accent_mem.Page.index list ->
  Accent_ipc.Memory_object.t
(** Replace every Data page NOT in [keep_pages] with IOUs backed by the
    given server, leaving the kept pages physical.  The kept pages go
    into one [Interval_map] of collapsed page indices, and each Data
    chunk is split against it with
    {!Accent_mem.Interval_map.fold_pieces}: kept pieces stay Data (a
    {!Accent_mem.Page_run.sub} view), every gap is banked as one extent
    and travels as one IOU.  Chunk coordinates are collapsed offsets
    throughout.  (Exposed for tests.) *)
