(** IPC messages.

    A message carries a small inline body, optional out-of-line memory
    (see {!Memory_object}), and port rights.  The [payload] is an extensible
    variant: each layer of the system (pager, migration, applications)
    declares its own message kinds without this module knowing about them,
    mirroring how Accent messages were typed by user-level convention. *)

type payload = ..
(** Extended by higher layers, e.g. the imaginary-memory protocol adds
    [Imaginary_read_request]. *)

type payload += Ping of int  (** built-in kind for tests and examples *)

type category =
  | Control  (** commands, context metadata, death notices *)
  | Bulk  (** address-space content shipped at migration time *)
  | Fault  (** imaginary read requests and replies *)
  | Retransmit
      (** fragments re-sent by the reliable transport after a timeout —
          wire overhead, not goodput *)
  | Ack  (** transport acknowledgements (cumulative + selective) *)
      (** Traffic class, for the byte- and rate-accounting that the paper's
          Figures 4-3 and 4-5 split into fault vs other transfers.  The
          [Retransmit] and [Ack] classes exist only on the wire: no message
          payload travels under them, but recording them separately lets
          the loss-sweep experiment split goodput from ARQ overhead. *)

val category_name : category -> string

type t = {
  id : int;
  dest : Port.id;
  reply_to : Port.id option;
  payload : payload;
  inline_bytes : int;  (** size of the inline body *)
  memory : Memory_object.t option;  (** out-of-line memory, if any *)
  rights : Port.id list;  (** port rights transferred by the message *)
  no_ious : bool;
      (** the NoIOUs header bit (§2.4): when set, NetMsgServers must
          physically copy the memory object rather than caching it and
          passing IOUs *)
  category : category;
}

val make :
  ids:Accent_sim.Ids.t ->
  dest:Port.id ->
  ?reply_to:Port.id ->
  ?inline_bytes:int ->
  ?memory:Memory_object.t ->
  ?rights:Port.id list ->
  ?no_ious:bool ->
  ?category:category ->
  payload ->
  t
(** [inline_bytes] defaults to 64 (a small typed request); [no_ious]
    defaults to false; [category] to [Control].  The memory object, when
    present, is validated. *)

val header_bytes : int
(** Fixed per-message wire overhead. *)

val local_size : t -> int
(** Bytes the message logically occupies on one host: header + inline +
    out-of-line memory (data and promised alike do not differ locally —
    both are mappings). *)

val wire_size : t -> int
(** Bytes this message puts on the network as currently composed: header +
    inline + rights + memory descriptors + {e physically present} data.
    IOU chunks contribute descriptors only. *)

val with_memory : t -> Memory_object.t option -> t
(** Replace the memory object (NetMsgServer IOU substitution). *)

val pp : Format.formatter -> t -> unit
