open Accent_util
open Accent_kernel
open Accent_core

(* --- bandwidth --- *)

type bandwidth_row = {
  speedup_factor : float;
  copy_s : float;
  iou_s : float;
  ratio : float;
  iou_end_to_end_s : float;
  copy_end_to_end_s : float;
}

let faster_network factor =
  let d = Cost_model.default in
  {
    d with
    Cost_model.link =
      {
        Accent_net.Link.bytes_per_ms =
          d.Cost_model.link.Accent_net.Link.bytes_per_ms *. factor;
        latency_ms = d.Cost_model.link.Accent_net.Link.latency_ms /. factor;
      };
    nms =
      {
        d.Cost_model.nms with
        Accent_net.Netmsgserver.per_byte_ms =
          d.Cost_model.nms.Accent_net.Netmsgserver.per_byte_ms /. factor;
      };
  }

let bandwidth_sweep ?(spec = Accent_workloads.Representative.lisp_t)
    ?(factors = [ 1.; 4.; 16.; 64. ]) () =
  List.map
    (fun factor ->
      let costs = faster_network factor in
      let run strategy = Trial.run ~costs ~spec ~strategy () in
      let copy = run Strategy.pure_copy and iou = run (Strategy.pure_iou ()) in
      let copy_s = Report.rimas_transfer_seconds copy.Trial.report in
      let iou_s = Report.rimas_transfer_seconds iou.Trial.report in
      {
        speedup_factor = factor;
        copy_s;
        iou_s;
        ratio = copy_s /. Float.max 1e-9 iou_s;
        iou_end_to_end_s = Report.end_to_end_seconds iou.Trial.report;
        copy_end_to_end_s = Report.end_to_end_seconds copy.Trial.report;
      })
    factors

let render_bandwidth rows =
  let t =
    Text_table.create
      ~title:
        "Ablation: network/protocol speed (Lisp-T).  The transfer-time gap \
         narrows on faster media but lazy shipment keeps winning end to end \
         until bandwidth is nearly free."
      [
        ("speedup", Text_table.Right);
        ("copy xfer (s)", Text_table.Right);
        ("IOU xfer (s)", Text_table.Right);
        ("ratio", Text_table.Right);
        ("copy e2e (s)", Text_table.Right);
        ("IOU e2e (s)", Text_table.Right);
      ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          Printf.sprintf "%.0fx" r.speedup_factor;
          Text_table.cell_f r.copy_s;
          Text_table.cell_f ~dec:3 r.iou_s;
          Printf.sprintf "%.0fx" r.ratio;
          Text_table.cell_f r.copy_end_to_end_s;
          Text_table.cell_f r.iou_end_to_end_s;
        ])
    rows;
  Text_table.render t

(* --- NMS caching switch --- *)

type caching_row = {
  caching : bool;
  transfer_s : float;
  bulk_bytes : int;
  fault_bytes : int;
}

let caching_ablation ?(spec = Accent_workloads.Representative.minprog) () =
  List.map
    (fun caching ->
      let d = Cost_model.default in
      let costs =
        {
          d with
          Cost_model.nms =
            { d.Cost_model.nms with Accent_net.Netmsgserver.iou_caching = caching };
        }
      in
      let result =
        Trial.run ~costs ~spec ~strategy:(Strategy.pure_iou ()) ()
      in
      {
        caching;
        transfer_s = Report.rimas_transfer_seconds result.Trial.report;
        bulk_bytes = result.Trial.report.Report.bytes_bulk;
        fault_bytes = result.Trial.report.Report.bytes_fault;
      })
    [ true; false ]

let render_caching rows =
  let t =
    Text_table.create
      ~title:
        "Ablation: NetMsgServer IOU caching (Minprog, pure-IOU request).  \
         With the Section 2.4 mechanism disabled the 'lazy' migration \
         silently becomes a physical copy."
      [
        ("caching", Text_table.Left);
        ("transfer (s)", Text_table.Right);
        ("bulk bytes", Text_table.Right);
        ("fault bytes", Text_table.Right);
      ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          (if r.caching then "on" else "off");
          Text_table.cell_f r.transfer_s;
          Text_table.cell_bytes r.bulk_bytes;
          Text_table.cell_bytes r.fault_bytes;
        ])
    rows;
  Text_table.render t

(* --- backing-process load --- *)

type backer_row = {
  lookup_ms : float;
  remote_exec_s : float;
  per_fault_ms : float;
}

let backer_load_sweep ?(spec = Accent_workloads.Representative.minprog)
    ?(lookups = [ 38.; 100.; 300.; 1000. ]) () =
  List.map
    (fun lookup_ms ->
      let d = Cost_model.default in
      let costs =
        {
          d with
          Cost_model.nms =
            {
              d.Cost_model.nms with
              Accent_net.Netmsgserver.backing_lookup_ms = lookup_ms;
            };
        }
      in
      let result =
        Trial.run ~costs ~spec ~strategy:(Strategy.pure_iou ()) ()
      in
      let r = result.Trial.report in
      {
        lookup_ms;
        remote_exec_s = Report.remote_execution_seconds r;
        per_fault_ms =
          1000.
          *. Report.remote_execution_seconds r
          /. float_of_int (max 1 r.Report.dest_faults_imag);
      })
    lookups

let render_backer rows =
  let t =
    Text_table.create
      ~title:
        "Ablation: backing-process service time (Minprog, pure-IOU).  \
         ImagMem is 'distantly accessible': a loaded backer stretches every \
         fault and hence remote execution (paper Section 2.3)."
      [
        ("lookup (ms)", Text_table.Right);
        ("remote exec (s)", Text_table.Right);
        ("per-fault (ms)", Text_table.Right);
      ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          Text_table.cell_f ~dec:0 r.lookup_ms;
          Text_table.cell_f r.remote_exec_s;
          Text_table.cell_f ~dec:0 r.per_fault_ms;
        ])
    rows;
  Text_table.render t

(* --- destination memory pressure --- *)

type pressure_row = {
  frames : int;
  copy_exec_s : float;
  copy_disk_faults : int;
  iou_exec_s : float;
  iou_disk_faults : int;
}

let memory_pressure_sweep ?(spec = Accent_workloads.Representative.pm_start)
    ?(frame_counts = [ 4096; 1024; 512; 256 ]) () =
  List.map
    (fun frames ->
      let costs = { Cost_model.default with Cost_model.frames_per_host = frames } in
      let run strategy = Trial.run ~costs ~spec ~strategy () in
      let copy = run Strategy.pure_copy and iou = run (Strategy.pure_iou ()) in
      {
        frames;
        copy_exec_s = Report.remote_execution_seconds copy.Trial.report;
        copy_disk_faults = copy.Trial.report.Report.dest_faults_disk;
        iou_exec_s = Report.remote_execution_seconds iou.Trial.report;
        iou_disk_faults = iou.Trial.report.Report.dest_faults_disk;
      })
    frame_counts

let render_pressure rows =
  let t =
    Text_table.create
      ~title:
        "Ablation: destination physical memory (PM-Start).  Pure-copy \
         installs the whole RealMem and thrashes when it no longer fits; \
         IOU materialises only what is touched."
      [
        ("frames", Text_table.Right);
        ("copy exec (s)", Text_table.Right);
        ("copy disk faults", Text_table.Right);
        ("IOU exec (s)", Text_table.Right);
        ("IOU disk faults", Text_table.Right);
      ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          string_of_int r.frames;
          Text_table.cell_f r.copy_exec_s;
          string_of_int r.copy_disk_faults;
          Text_table.cell_f r.iou_exec_s;
          string_of_int r.iou_disk_faults;
        ])
    rows;
  Text_table.render t

(* --- strategy face-off including the pre-copy baseline --- *)

type strategy_row = {
  strategy : string;
  downtime_s : float;
  total_bytes : int;
  end_to_end_s : float;
  message_s : float;
}

let strategy_face_off ?(spec = Accent_workloads.Representative.pm_start)
    ?(write_fraction = 0.15) () =
  List.map
    (fun strategy ->
      let result = Trial.run ~write_fraction ~spec ~strategy () in
      let r = result.Trial.report in
      {
        strategy = Strategy.name strategy;
        downtime_s = Report.downtime_seconds r;
        total_bytes = Report.bytes_total r;
        end_to_end_s = Report.end_to_end_seconds r;
        message_s = r.Report.message_seconds;
      })
    [
      Strategy.pure_copy;
      Strategy.pure_iou ~prefetch:1 ();
      Strategy.resident_set ~prefetch:1 ();
      Strategy.pre_copy ();
    ]

let render_face_off rows =
  let t =
    Text_table.create
      ~title:
        "Strategy face-off incl. the pre-copy baseline (PM-Start, 15% \
         stores).  Pre-copy minimises downtime but, as Section 5 notes, \
         both hosts still pay the full transfer; copy-on-reference cuts \
         the bytes themselves."
      [
        ("strategy", Text_table.Left);
        ("downtime (s)", Text_table.Right);
        ("bytes", Text_table.Right);
        ("end-to-end (s)", Text_table.Right);
        ("msg time (s)", Text_table.Right);
      ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          r.strategy;
          Text_table.cell_f r.downtime_s;
          Text_table.cell_bytes r.total_bytes;
          Text_table.cell_f r.end_to_end_s;
          Text_table.cell_f r.message_s;
        ])
    rows;
  Text_table.render t

(* --- working set vs resident set --- *)

type ws_row = {
  ws_strategy : string;
  shipped_bytes : int;
  demand_faults : int;
  useful_fraction : float;
  ws_end_to_end_s : float;
}

let ws_vs_rs ?(spec = Accent_workloads.Representative.pm_mid)
    ?(migrate_after_ms = 5_000.) () =
  List.map
    (fun strategy ->
      let result = Trial.run ~migrate_after_ms ~spec ~strategy () in
      let r = result.Trial.report in
      let page = Accent_mem.Page.size in
      let fetched = page * (r.Report.dest_faults_imag + r.Report.prefetch_extra) in
      let shipped = r.Report.remote_real_bytes_fetched - fetched in
      let touched_shipped =
        max 0
          (r.Report.remote_touched_pages - r.Report.dest_faults_imag
         - r.Report.dest_faults_zero)
      in
      {
        ws_strategy = Strategy.name strategy;
        shipped_bytes = shipped;
        demand_faults = r.Report.dest_faults_imag;
        useful_fraction =
          (if shipped = 0 then 0.
           else
             Float.min 1.
               (float_of_int (touched_shipped * page) /. float_of_int shipped));
        ws_end_to_end_s = Report.end_to_end_seconds r;
      })
    [
      Strategy.resident_set ();
      Strategy.working_set ~window_ms:2_000. ();
      Strategy.working_set ~window_ms:10_000. ();
      Strategy.pure_iou ();
    ]

let render_ws_vs_rs rows =
  let t =
    Text_table.create
      ~title:
        "Extension: working-set vs resident-set shipment (PM-Mid, migrated \
         live at t=5s).  Section 4.2.2 calls the resident set a working-set \
         approximation and Section 4.3.4 finds it doesn't pay its way; the \
         real Denning estimator ships less and wastes less."
      [
        ("strategy", Text_table.Left);
        ("shipped", Text_table.Right);
        ("faults after", Text_table.Right);
        ("useful", Text_table.Right);
        ("end-to-end (s)", Text_table.Right);
      ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          r.ws_strategy;
          Text_table.cell_bytes r.shipped_bytes;
          string_of_int r.demand_faults;
          Printf.sprintf "%.0f%%" (100. *. r.useful_fraction);
          Text_table.cell_f r.ws_end_to_end_s;
        ])
    rows;
  Text_table.render t

(* --- flow-control window --- *)

type window_row = {
  window : int;
  win_copy_s : float;
  win_iou_s : float;
  win_fault_ms : float;
}

let flow_window_sweep ?(spec = Accent_workloads.Representative.minprog)
    ?(windows = [ 1; 4; 16 ]) () =
  List.map
    (fun window ->
      let d = Cost_model.default in
      let costs =
        {
          d with
          Cost_model.nms =
            { d.Cost_model.nms with Accent_net.Netmsgserver.flow_window = window };
        }
      in
      let run strategy = Trial.run ~costs ~spec ~strategy () in
      let copy = run Strategy.pure_copy and iou = run (Strategy.pure_iou ()) in
      let iou_r = iou.Trial.report in
      {
        window;
        win_copy_s = Report.rimas_transfer_seconds copy.Trial.report;
        win_iou_s = Report.rimas_transfer_seconds iou_r;
        win_fault_ms =
          1000.
          *. Report.remote_execution_seconds iou_r
          /. float_of_int (max 1 iou_r.Report.dest_faults_imag);
      })
    windows

let render_flow_window rows =
  let t =
    Text_table.create
      ~title:
        "Ablation: NetMsgServer flow-control window (Minprog).           Stop-and-wait (window 1) is the 1987 behaviour; pipelining speeds          bulk copies but cannot touch the per-fault exchange."
      [
        ("window", Text_table.Right);
        ("copy xfer (s)", Text_table.Right);
        ("IOU xfer (s)", Text_table.Right);
        ("per-fault (ms)", Text_table.Right);
      ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          string_of_int r.window;
          Text_table.cell_f r.win_copy_s;
          Text_table.cell_f r.win_iou_s;
          Text_table.cell_f ~dec:0 r.win_fault_ms;
        ])
    rows;
  Text_table.render t

(* --- adaptive prefetch --- *)

type adaptive_row = {
  ap_workload : string;
  ap_strategy : string;
  ap_exec_s : float;
  ap_bytes : int;
  ap_final_prefetch : int option;
}

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
  List.concat_map
    (fun spec ->
      let name = spec.Accent_workloads.Spec.name in
      let static prefetch =
        let result =
          Trial.run ~spec ~strategy:(Strategy.pure_iou ~prefetch ()) ()
        in
        {
          ap_workload = name;
          ap_strategy = Printf.sprintf "pf%d" prefetch;
          ap_exec_s = Report.remote_execution_seconds result.Trial.report;
          ap_bytes = Report.bytes_total result.Trial.report;
          ap_final_prefetch = None;
        }
      in
      let exec_s, bytes, final = adaptive_trial spec in
      [ static 0; static 1; static 7 ]
      @ [
          {
            ap_workload = name;
            ap_strategy = "adaptive";
            ap_exec_s = exec_s;
            ap_bytes = bytes;
            ap_final_prefetch = final;
          };
        ])
    specs

let render_adaptive rows =
  let t =
    Text_table.create
      ~title:
        "Extension: adaptive prefetch (controller walks the amount up          while prefetched pages keep being used, down when they stop;          Section 6's 'apply that knowledge' made automatic)"
      [
        ("workload", Text_table.Left);
        ("prefetch", Text_table.Left);
        ("remote exec (s)", Text_table.Right);
        ("bytes", Text_table.Right);
        ("settled at", Text_table.Right);
      ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          r.ap_workload;
          r.ap_strategy;
          Text_table.cell_f r.ap_exec_s;
          Text_table.cell_bytes r.ap_bytes;
          (match r.ap_final_prefetch with
          | Some pf -> Printf.sprintf "pf%d" pf
          | None -> "-");
        ])
    rows;
  Text_table.render t

let run_all () =
  print_string (render_bandwidth (bandwidth_sweep ()));
  print_newline ();
  print_string (render_caching (caching_ablation ()));
  print_newline ();
  print_string (render_backer (backer_load_sweep ()));
  print_newline ();
  print_string (render_pressure (memory_pressure_sweep ()));
  print_newline ();
  print_string (render_face_off (strategy_face_off ()));
  print_newline ();
  print_string (render_ws_vs_rs (ws_vs_rs ()));
  print_newline ();
  print_string (render_flow_window (flow_window_sweep ()));
  print_newline ();
  print_string (render_adaptive (adaptive_prefetch ()));
  print_newline ();
  print_string (Cluster_scenario.render (Cluster_scenario.compare_policies ()))
