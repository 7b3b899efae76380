open Accent_kernel
open Accent_core
module R = Result_table

(* Titles name the workload and settings a table was built with, read
   from its arguments, so a table built on another spec says so. *)
let name spec = spec.Accent_workloads.Spec.name

(* The default costs with the NetMsgServer's parameters changed by [f]. *)
let with_nms f =
  let d = Cost_model.default in
  { d with Cost_model.nms = f d.Cost_model.nms }

(* The report of a pure-IOU trial of [spec] under [costs]. *)
let iou ~costs spec =
  (Trial.run ~costs ~spec ~strategy:(Strategy.pure_iou ()) ()).Trial.report

(* The reports of a pure-copy and a pure-IOU trial. *)
let copy_and_iou ~costs spec =
  let copy =
    (Trial.run ~costs ~spec ~strategy:Strategy.pure_copy ()).Trial.report
  in
  (copy, iou ~costs spec)

let per_fault_ms r =
  1000.
  *. Report.remote_execution_seconds r
  /. float_of_int (max 1 r.Report.dest_faults_imag)

(* --- bandwidth --- *)

let faster_network factor =
  let d = Cost_model.default in
  {
    (with_nms (fun n ->
         {
           n with
           Accent_net.Netmsgserver.per_byte_ms =
             n.Accent_net.Netmsgserver.per_byte_ms /. factor;
         }))
    with
    Cost_model.link =
      {
        Accent_net.Link.bytes_per_ms =
          d.Cost_model.link.Accent_net.Link.bytes_per_ms *. factor;
        latency_ms = d.Cost_model.link.Accent_net.Link.latency_ms /. factor;
      };
  }

let bandwidth_sweep ?(spec = Accent_workloads.Representative.lisp_t)
    ?(factors = [ 1.; 4.; 16.; 64. ]) () =
  let times = R.Custom (Printf.sprintf "%.0fx") in
  R.table
    (Printf.sprintf
       "Ablation: network/protocol speed (%s).  The transfer-time gap \
        narrows on faster media but lazy shipment keeps winning end to end \
        until bandwidth is nearly free."
       (name spec))
    [
      R.column "speedup" "speedup" times;
      R.column "copy xfer (s)" "copy_s" (Fixed 2);
      R.column "IOU xfer (s)" "iou_s" (Fixed 3);
      R.column "ratio" "ratio" times;
      R.column "copy e2e (s)" "copy_end_to_end_s" (Fixed 2);
      R.column "IOU e2e (s)" "iou_end_to_end_s" (Fixed 2);
    ]
    (List.map
       (fun factor ->
         let copy, iou = copy_and_iou ~costs:(faster_network factor) spec in
         let copy_s = Report.rimas_transfer_seconds copy in
         let iou_s = Report.rimas_transfer_seconds iou in
         R.row []
           (List.map R.measured
              [
                factor;
                copy_s;
                iou_s;
                copy_s /. Float.max 1e-9 iou_s;
                Report.end_to_end_seconds copy;
                Report.end_to_end_seconds iou;
              ]))
       factors)

(* --- NMS caching switch --- *)

let caching_ablation ?(spec = Accent_workloads.Representative.minprog) () =
  R.table
    (Printf.sprintf
       "Ablation: NetMsgServer IOU caching (%s, pure-IOU request).  With the \
        Section 2.4 mechanism disabled the 'lazy' migration silently becomes \
        a physical copy."
       (name spec))
    ~keys:[ ("caching", "caching") ]
    [
      R.column "transfer (s)" "transfer_s" (Fixed 2);
      R.column "bulk bytes" "bulk_bytes" Bytes;
      R.column "fault bytes" "fault_bytes" Bytes;
    ]
    (List.map
       (fun caching ->
         let costs =
           with_nms (fun n ->
               { n with Accent_net.Netmsgserver.iou_caching = caching })
         in
         let r = iou ~costs spec in
         R.row
           [ (if caching then "on" else "off") ]
           (List.map R.measured
              [
                Report.rimas_transfer_seconds r;
                float_of_int r.Report.bytes_bulk;
                float_of_int r.Report.bytes_fault;
              ]))
       [ true; false ])

(* --- backing-process load --- *)

let backer_load_sweep ?(spec = Accent_workloads.Representative.minprog)
    ?(lookups = [ 38.; 100.; 300.; 1000. ]) () =
  R.table
    (Printf.sprintf
       "Ablation: backing-process service time (%s, pure-IOU).  ImagMem is \
        'distantly accessible': a loaded backer stretches every fault and \
        hence remote execution (paper Section 2.3)."
       (name spec))
    [
      R.column "lookup (ms)" "lookup_ms" (Fixed 0);
      R.column "remote exec (s)" "remote_exec_s" (Fixed 2);
      R.column "per-fault (ms)" "per_fault_ms" (Fixed 0);
    ]
    (List.map
       (fun lookup_ms ->
         let costs =
           with_nms (fun n ->
               { n with Accent_net.Netmsgserver.backing_lookup_ms = lookup_ms })
         in
         let r = iou ~costs spec in
         R.row []
           (List.map R.measured
              [ lookup_ms; Report.remote_execution_seconds r; per_fault_ms r ]))
       lookups)

(* --- destination memory pressure --- *)

let memory_pressure_sweep ?(spec = Accent_workloads.Representative.pm_start)
    ?(frame_counts = [ 4096; 1024; 512; 256 ]) () =
  R.table
    (Printf.sprintf
       "Ablation: destination physical memory (%s).  Pure-copy installs the \
        whole RealMem and thrashes when it no longer fits; IOU materialises \
        only what is touched."
       (name spec))
    [
      R.column "frames" "frames" (Fixed 0);
      R.column "copy exec (s)" "copy_exec_s" (Fixed 2);
      R.column "copy disk faults" "copy_disk_faults" (Fixed 0);
      R.column "IOU exec (s)" "iou_exec_s" (Fixed 2);
      R.column "IOU disk faults" "iou_disk_faults" (Fixed 0);
    ]
    (List.map
       (fun frames ->
         let copy, iou =
           copy_and_iou
             ~costs:
               { Cost_model.default with Cost_model.frames_per_host = frames }
             spec
         in
         let exec r = Report.remote_execution_seconds r in
         let disk r = float_of_int r.Report.dest_faults_disk in
         R.row []
           (List.map R.measured
              [
                float_of_int frames; exec copy; disk copy; exec iou; disk iou;
              ]))
       frame_counts)

(* --- strategy face-off including the pre-copy baseline --- *)

let strategy_face_off ?(spec = Accent_workloads.Representative.pm_start)
    ?(write_fraction = 0.15) () =
  R.table
    (Printf.sprintf
       "Strategy face-off incl. the pre-copy baseline (%s, %.0f%% stores).  \
        Pre-copy minimises downtime but, as Section 5 notes, both hosts \
        still pay the full transfer; copy-on-reference cuts the bytes \
        themselves."
       (name spec) (100. *. write_fraction))
    ~keys:[ ("strategy", "strategy") ]
    [
      R.column "downtime (s)" "downtime_s" (Fixed 2);
      R.column "bytes" "bytes" Bytes;
      R.column "end-to-end (s)" "end_to_end_s" (Fixed 2);
      R.column "msg time (s)" "message_s" (Fixed 2);
    ]
    (List.map
       (fun strategy ->
         let r = (Trial.run ~write_fraction ~spec ~strategy ()).Trial.report in
         R.row [ Strategy.name strategy ]
           (List.map R.measured
              [
                Report.downtime_seconds r;
                float_of_int (Report.bytes_total r);
                Report.end_to_end_seconds r;
                r.Report.message_seconds;
              ]))
       [
         Strategy.pure_copy;
         Strategy.pure_iou ~prefetch:1 ();
         Strategy.resident_set ~prefetch:1 ();
         Strategy.pre_copy ();
       ])

(* --- working set vs resident set --- *)

let ws_vs_rs ?(spec = Accent_workloads.Representative.pm_mid)
    ?(migrate_after_ms = 5_000.) () =
  R.table
    (Printf.sprintf
       "Extension: working-set vs resident-set shipment (%s, migrated live at \
        t=%gs).  Section 4.2.2 calls the resident set a working-set \
        approximation and Section 4.3.4 finds it doesn't pay its way; the \
        real Denning estimator ships less and wastes less."
       (name spec)
       (migrate_after_ms /. 1000.))
    ~keys:[ ("strategy", "strategy") ]
    [
      R.column "shipped" "shipped_bytes" Bytes;
      R.column "faults after" "demand_faults" (Fixed 0);
      R.column "useful" "useful_pct" (Custom (Printf.sprintf "%.0f%%"));
      R.column "end-to-end (s)" "end_to_end_s" (Fixed 2);
    ]
    (List.map
       (fun (label, strategy) ->
         let r = (Trial.run ~migrate_after_ms ~spec ~strategy ()).Trial.report in
         let page = Accent_mem.Page.size in
         let fetched =
           page * (r.Report.dest_faults_imag + r.Report.prefetch_extra)
         in
         let shipped = r.Report.remote_real_bytes_fetched - fetched in
         let touched_shipped =
           max 0
             (r.Report.remote_touched_pages - r.Report.dest_faults_imag
            - r.Report.dest_faults_zero)
         in
         (* of the physically-shipped pages, the share the process went on
            to touch: the "did it pay its way" metric of §4.3.4 *)
         let useful =
           if shipped = 0 then 0.
           else
             Float.min 1.
               (float_of_int (touched_shipped * page) /. float_of_int shipped)
         in
         R.row [ label ]
           (List.map R.measured
              [
                float_of_int shipped;
                float_of_int r.Report.dest_faults_imag;
                100. *. useful;
                Report.end_to_end_seconds r;
              ]))
       [
         ("rs", Strategy.resident_set ());
         ("ws 2s", Strategy.working_set ~window_ms:2_000. ());
         ("ws 10s", Strategy.working_set ~window_ms:10_000. ());
         ("iou", Strategy.pure_iou ());
       ])

(* --- flow-control window --- *)

let flow_window_sweep ?(spec = Accent_workloads.Representative.minprog)
    ?(windows = [ 1; 4; 16 ]) () =
  R.table
    (Printf.sprintf
       "Ablation: NetMsgServer flow-control window (%s).  Stop-and-wait \
        (window 1) is the 1987 behaviour; pipelining speeds bulk copies but \
        cannot touch the per-fault exchange."
       (name spec))
    [
      R.column "window" "window" (Fixed 0);
      R.column "copy xfer (s)" "copy_s" (Fixed 2);
      R.column "IOU xfer (s)" "iou_s" (Fixed 2);
      R.column "per-fault (ms)" "per_fault_ms" (Fixed 0);
    ]
    (List.map
       (fun window ->
         let copy, iou =
           copy_and_iou
             ~costs:
               (with_nms (fun n ->
                    { n with Accent_net.Netmsgserver.flow_window = window }))
             spec
         in
         R.row []
           (List.map R.measured
              [
                float_of_int window;
                Report.rimas_transfer_seconds copy;
                Report.rimas_transfer_seconds iou;
                per_fault_ms iou;
              ]))
       windows)

(* --- adaptive prefetch --- *)

let adaptive_trial spec =
  let world = World.create ~n_hosts:2 () in
  let proc = Accent_workloads.Spec.build (World.host world 0) spec in
  let controller = ref None in
  let report =
    Migration_manager.migrate (World.manager world 0) ~proc
      ~dest:(Migration_manager.port (World.manager world 1))
      ~strategy:(Strategy.pure_iou ~prefetch:1 ())
      ~on_restart:(fun p ->
        controller := Some (Adaptive_prefetch.attach world.World.engine p))
      ()
  in
  ignore (World.run world);
  let final =
    Option.map
      (fun c ->
        match List.rev (Adaptive_prefetch.trajectory c) with
        | (_, pf) :: _ -> pf
        | [] -> 1)
      !controller
  in
  let bytes c = Accent_net.Transfer_monitor.bytes_of world.World.monitor c in
  ( Report.remote_execution_seconds report,
    bytes Accent_ipc.Message.Fault + bytes Accent_ipc.Message.Bulk
    + bytes Accent_ipc.Message.Control,
    final )

let adaptive_prefetch
    ?(specs =
      [
        Accent_workloads.Representative.pm_start;
        Accent_workloads.Representative.lisp_del;
      ]) () =
  R.table
    "Extension: adaptive prefetch (controller walks the amount up while \
     prefetched pages keep being used, down when they stop; Section 6's \
     'apply that knowledge' made automatic)"
    ~keys:[ ("workload", "workload"); ("prefetch", "prefetch") ]
    [
      R.column "remote exec (s)" "remote_exec_s" (Fixed 2);
      R.column "bytes" "bytes" Bytes;
      (* nan for the static settings, which never move *)
      R.column "settled at" "settled_at"
        (Custom
           (fun pf ->
             if Float.is_nan pf then "-" else Printf.sprintf "pf%.0f" pf));
    ]
    (List.concat_map
       (fun spec ->
         let name = spec.Accent_workloads.Spec.name in
         let static prefetch =
           let r =
             (Trial.run ~spec ~strategy:(Strategy.pure_iou ~prefetch ()) ())
               .Trial.report
           in
           R.row
             [ name; Printf.sprintf "pf%d" prefetch ]
             (List.map R.measured
                [
                  Report.remote_execution_seconds r;
                  float_of_int (Report.bytes_total r);
                  Float.nan;
                ])
         in
         let exec_s, bytes, final = adaptive_trial spec in
         [ static 0; static 1; static 7 ]
         @ [
             R.row [ name; "adaptive" ]
               (List.map R.measured
                  [
                    exec_s;
                    float_of_int bytes;
                    Option.fold ~none:Float.nan ~some:float_of_int final;
                  ]);
           ])
       specs)

let run_all () =
  let show t =
    print_string (R.text t);
    print_newline ()
  in
  show (bandwidth_sweep ());
  show (caching_ablation ());
  show (backer_load_sweep ());
  show (memory_pressure_sweep ());
  show (strategy_face_off ());
  show (ws_vs_rs ());
  show (flow_window_sweep ());
  show (adaptive_prefetch ());
  print_string (Cluster_scenario.render (Cluster_scenario.compare_policies ()))
