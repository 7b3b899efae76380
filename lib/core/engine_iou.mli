(** The lazy-transfer engine: pure-IOU, resident-set and working-set.

    All three ship the classic two-message context (see {!Engine_copy});
    they differ only in how the RIMAS is prepared at the source:

    - {b pure-IOU}: RIMAS data shipped with NoIOUs {e clear} — "the
      MigrationManager allows the intermediary NetMsgServers to cache the
      data and become its backer";
    - {b resident-set}: the manager plays backer itself: resident pages
      stay physical in the RIMAS, everything else becomes IOUs on the
      manager's own backing server;
    - {b working-set}: as resident-set, but keeping only the pages
      referenced within the strategy's window (read from the live process
      {e before} excision dismantles the space). *)

val partial_rimas :
  Transfer_engine.ctx ->
  Accent_kernel.Excise.excised ->
  keep_pages:Accent_mem.Page.index list ->
  Accent_ipc.Memory_object.t
(** Replace every Data page NOT in [keep_pages] with IOUs backed by the
    manager's own server, leaving the kept pages physical.  Each Data
    chunk is sliced against the kept pages' runs: kept slices stay Data,
    every other slice is banked as one extent and travels as one IOU.
    Chunk coordinates are collapsed offsets throughout.  (Exposed for
    tests.) *)

val shippable_ws_pages :
  Transfer_engine.ctx ->
  Accent_kernel.Proc.t ->
  window_ms:float ->
  Accent_mem.Page.index list
(** The live process's pages referenced within the last [window_ms] that
    actually carry data (resident or paged out) — the estimated working
    set a push phase can ship physically.  Shared with {!Engine_push}. *)

val create : Transfer_engine.ctx -> Transfer_engine.t
(** Claims [Pure_iou], [Resident_set] and [Working_set]; destination
    handling is {!Engine_copy}'s, so [handle] consumes nothing. *)
