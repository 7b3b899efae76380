(** The classic transfer engine: pure-copy, pure-IOU, resident-set and
    working-set.

    All four ship the context as two concurrent messages: the Core —
    microstate, PCB, port rights, AMap — and the RIMAS.  They differ only
    in how the RIMAS is prepared at the source ({!rimas}):

    - {b pure-copy}: the whole RIMAS as data, NoIOUs set;
    - {b pure-IOU}: the whole RIMAS with NoIOUs {e clear} — "the
      MigrationManager allows the intermediary NetMsgServers to cache the
      data and become its backer";
    - {b resident-set}: the manager plays backer itself: resident pages
      stay physical in the RIMAS, everything else becomes IOUs on the
      manager's own backing server;
    - {b working-set}: as resident-set, but keeping only the pages
      referenced within the strategy's window (read from the live process
      {e before} excision dismantles the space).

    The destination side resolves the arrival race (the messages arrive
    in either order: under pure-IOU the tiny RIMAS regularly beats the
    Core); the wire format does not reveal which strategy sent them. *)

type Accent_ipc.Message.payload +=
  | Mig_core of {
      core : Accent_kernel.Context.core;
      handoff : Transfer_engine.handoff;
    }
  | Mig_rimas of { proc_id : int }
        (** memory object: the RIMAS, collapsed coordinates *)

type rimas =
  | Whole of { no_ious : bool }  (** pure-copy (set) and pure-IOU (clear) *)
  | Keep_resident  (** resident-set *)
  | Keep_window of float  (** working-set, window in ms *)

type t

val create : Transfer_engine.ctx -> t

val start :
  t ->
  proc:Accent_kernel.Proc.t ->
  dest:Accent_ipc.Port.id ->
  rimas:rimas ->
  handoff:Transfer_engine.handoff ->
  unit
(** Source side: freeze and excise [proc], prepare the RIMAS, then send
    the RIMAS and the Core to the manager at [dest]. *)

val handle : t -> Accent_ipc.Message.t -> bool
(** Consume a Core or RIMAS arriving on the manager's port; [false] for
    any other payload. *)

val give_up_proc : Accent_ipc.Message.payload -> int option
(** The migration an abandoned Core or RIMAS belonged to. *)

val debug_stats : t -> (string * int) list
(** ["pending"]: migrations with one of the two messages in hand. *)

val partial_rimas :
  Backing_server.t ->
  Accent_kernel.Excise.excised ->
  keep_pages:Accent_mem.Page.index list ->
  Accent_ipc.Memory_object.t
(** Replace every Data page NOT in [keep_pages] with IOUs backed by the
    given server, leaving the kept pages physical.  Each Data chunk is
    sliced against the kept pages' runs: kept slices stay Data, every
    other slice is banked as one extent and travels as one IOU.  Chunk
    coordinates are collapsed offsets throughout.  (Exposed for tests.) *)
