type Message.payload +=
  | Imaginary_read_request of { segment_id : int; offset : int; pages : int }
  | Imaginary_read_reply of {
      segment_id : int;
      offset : int;
      page_data : Accent_mem.Page_run.t;
    }
  | Imaginary_segment_death of { segment_id : int }
  | Mig_digests of {
      xfer_id : int;
      proc_id : int;
      src_port : Port.id;
      runs : (int * int array) list;
    }
  | Mig_need of { xfer_id : int; proc_id : int; need : (int * int) list }

let read_request ~ids ~dest ~reply_to ~segment_id ~offset ~pages =
  Message.make ~ids ~dest ~reply_to ~inline_bytes:32 ~category:Message.Fault
    (Imaginary_read_request { segment_id; offset; pages })

let read_reply ~ids ~dest ~segment_id ~offset ~page_data =
  let data_bytes =
    Accent_mem.Page_run.length page_data * Accent_mem.Page.size
  in
  Message.make ~ids ~dest ~category:Message.Fault
    ~inline_bytes:(32 + data_bytes)
    (Imaginary_read_reply { segment_id; offset; page_data })

let segment_death ~ids ~dest ~segment_id =
  Message.make ~ids ~dest ~inline_bytes:32
    (Imaginary_segment_death { segment_id })

(* The advertisement carries one 8-byte digest per page plus a 12-byte
   (offset, count) header per run; the need reply is 8 bytes per run. *)
let mig_digests ~ids ~dest ~xfer_id ~proc_id ~src_port ~runs =
  let digests =
    List.fold_left (fun acc (_, ds) -> acc + Array.length ds) 0 runs
  in
  Message.make ~ids ~dest ~category:Message.Control
    ~inline_bytes:(32 + (12 * List.length runs) + (8 * digests))
    (Mig_digests { xfer_id; proc_id; src_port; runs })

let mig_need ~ids ~dest ~xfer_id ~proc_id ~need =
  Message.make ~ids ~dest ~category:Message.Control
    ~inline_bytes:(32 + (8 * List.length need))
    (Mig_need { xfer_id; proc_id; need })
