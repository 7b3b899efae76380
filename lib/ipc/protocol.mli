(** The imaginary-memory IPC protocol (paper §2.2).

    These are the message kinds exchanged between the Pager/Scheduler of a
    faulting host and whichever process holds Receive rights for an
    imaginary segment's backing port: page fetches, their replies, and the
    death notification sent when all references to a segment are gone.

    Declared here — below both the NetMsgServer and the migration layer —
    because {e any} holder of a backing port must speak it: the NetMsgServer
    when it caches message data and passes IOUs, the MigrationManager if it
    manages excised address spaces itself, and ordinary applications using
    copy-on-reference for their own data. *)

type Message.payload +=
  | Imaginary_read_request of {
      segment_id : int;
      offset : int;  (** page-aligned segment offset being faulted *)
      pages : int;
          (** how many contiguous pages to return: 1 + prefetch count *)
    }
  | Imaginary_read_reply of {
      segment_id : int;
      offset : int;
      page_data : Accent_mem.Page_run.t;
          (** pages from [offset] upward; may be shorter than requested if
              the segment ends or has holes *)
    }
  | Imaginary_segment_death of { segment_id : int }
  | Mig_digests of {
      xfer_id : int;  (** fresh id pairing the need reply to this offer *)
      proc_id : int;
      src_port : Port.id;  (** where the need reply goes *)
      runs : (int * int array) list;
          (** (object byte offset, one digest per page) for every Data run
              the sender is prepared to elide *)
    }
      (** The digest-first half of a content-addressed transfer: instead of
          shipping page bytes, the sender first names them.  The receiver
          checks its content store and answers {!Mig_need} with the subset
          it cannot produce locally. *)
  | Mig_need of {
      xfer_id : int;
      proc_id : int;
      need : (int * int) list;
          (** (object byte offset, page count) runs the receiver lacks *)
    }

val read_request :
  ids:Accent_sim.Ids.t ->
  dest:Port.id ->
  reply_to:Port.id ->
  segment_id:int ->
  offset:int ->
  pages:int ->
  Message.t
(** Build a well-formed request (small inline body, Fault category sizing:
    the inline body is 64 bytes). *)

val read_reply :
  ids:Accent_sim.Ids.t ->
  dest:Port.id ->
  segment_id:int ->
  offset:int ->
  page_data:Accent_mem.Page_run.t ->
  Message.t
(** Build the reply; its inline size reflects the pages carried. *)

val segment_death :
  ids:Accent_sim.Ids.t -> dest:Port.id -> segment_id:int -> Message.t

val mig_digests :
  ids:Accent_sim.Ids.t ->
  dest:Port.id ->
  xfer_id:int ->
  proc_id:int ->
  src_port:Port.id ->
  runs:(int * int array) list ->
  Message.t
(** Build a digest advertisement; its inline size charges 8 bytes per
    digest plus a 12-byte header per run (Control category). *)

val mig_need :
  ids:Accent_sim.Ids.t ->
  dest:Port.id ->
  xfer_id:int ->
  proc_id:int ->
  need:(int * int) list ->
  Message.t
(** Build the missing-subset reply (Control category). *)
