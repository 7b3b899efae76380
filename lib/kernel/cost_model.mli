(** The calibrated time constants of the simulated kernel, and the
    settings experiments vary.

    Sources, all from the paper's own measurements on the Perq/Accent
    testbed (§4.3): a local disk fault costs 40.8 ms; a remote imaginary
    fault costs ~115 ms end-to-end; pure-copy shipment of an address space
    sustains roughly 15 KB/s effective (Table 4-5 Copy column ÷ Table 4-1
    Real column); AMap construction and RIMAS collapse costs fit linear
    models in region count, materialised pages, VM segments and resident
    pages (Table 4-4).  test/test_calibration.ml checks the emergent
    end-to-end numbers against these anchors.

    The fault-service, excision and context-size terms are constants of
    this module: they were measured once on the paper's testbed, and no
    experiment varies them.  The record {!t} keeps only what experiments
    do vary.  The message-handling constants of the same calibration live
    next to the code that charges them: {!Accent_ipc.Kernel_ipc},
    {!Accent_net.Netmsgserver}, {!Accent_net.Link} and
    {!Accent_net.Reliable}. *)

type t = {
  nms : Accent_net.Netmsgserver.params;
  link : Accent_net.Link.params;
  (* --- InsertProcess (§4.3.1) --- *)
  insert_base_ms : float;
  insert_per_amap_entry_ms : float;
  insert_per_data_page_ms : float;  (** per physically-shipped page mapped *)
  fault_timeout_ms : float;
      (** give up on an imaginary fault after this long with no reply —
          the residual-dependency hazard of lazy migration: if the backing
          site dies, so does the relocated process *)
  (* --- host --- *)
  frames_per_host : int;  (** physical memory pool (2 MB Perq = 4096) *)
}
(** The settings an experiment varies: the network (bandwidth ablation,
    caching, backer load, flow window, dedup), insertion cost (crash
    recovery), the fault timeout and the memory pool. *)

val default : t

(** {2 Fault service (paper §2.3, §4.3.3)} *)

val fill_zero_ms : float
(** FillZero: reserve a frame, zero it, map it (2 ms). *)

val pager_ms : float
(** Pager/Scheduler bookkeeping charged per fault (2.8 ms). *)

val disk_service_ms : float
(** Paging-disk access (38 ms); with {!pager_ms} this makes the 40.8 ms
    local disk fault. *)

val imag_install_per_page_ms : float
(** Mapping in each page that arrives in an imaginary read reply (1 ms). *)

val disk_fault_ms : float
(** The full local disk fault cost ([pager_ms + disk_service_ms]):
    40.8 ms. *)

(** {2 ExciseProcess (Table 4-4)} *)

val excise_base_ms : float
val amap_base_ms : float

val amap_per_region_ms : float
(** Per interval of the process map. *)

val amap_per_real_page_ms : float
(** Page-table walk per materialised page. *)

val amap_per_vm_segment_ms : float
(** The "costly search of system virtual memory tables" per segment. *)

val rimas_base_ms : float

val rimas_per_resident_page_ms : float
(** Remapping a resident page. *)

val rimas_per_disk_page_ms : float
(** Re-describing an on-disk page. *)

(** {2 Context size} *)

val pcb_bytes : int
(** Microstate + kernel stack + PCB: "roughly 1 Kbyte". *)
