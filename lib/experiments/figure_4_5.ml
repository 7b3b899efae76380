open Accent_core
open Accent_util

type panel = {
  strategy : Strategy.t;
  fault : (float * float) array;
  other : (float * float) array;
  end_to_end_s : float;
}

(* The paper's figure plots one-second bins. *)
let bin_s = 1.0

let panels ?seed ?(spec = Accent_workloads.Representative.lisp_del) () =
  List.map
    (fun strategy ->
      let result = Trial.run ?seed ~spec ~strategy () in
      let monitor = result.Trial.world.World.monitor in
      let width = bin_s *. 1000. (* series times are in ms *) in
      let to_seconds bins =
        Array.map (fun (t, v) -> (t /. 1000., v /. bin_s)) bins
      in
      let fault_series =
        Accent_net.Transfer_monitor.series_of monitor Accent_ipc.Message.Fault
      in
      (* bulk and control merge into the paper's "all other transfers" *)
      let other = Series.create () in
      List.iter
        (fun category ->
          List.iter
            (fun (time, value) -> Series.add other ~time ~value)
            (Series.samples (Accent_net.Transfer_monitor.series_of monitor category)))
        [ Accent_ipc.Message.Bulk; Accent_ipc.Message.Control ];
      {
        strategy;
        fault = to_seconds (Series.bin fault_series ~width);
        other = to_seconds (Series.bin other ~width);
        end_to_end_s = Report.end_to_end_seconds result.Trial.report;
      })
    [ Strategy.pure_iou (); Strategy.resident_set (); Strategy.pure_copy ]

(* A bin series as a lookup by bin time, 0 where it has no bin. *)
let lookup bins =
  let at = Hashtbl.create 64 in
  Array.iter (fun (t, v) -> Hashtbl.replace at t v) bins;
  fun t -> Option.value ~default:0. (Hashtbl.find_opt at t)

let peak_rate panel =
  let other_at = lookup panel.other in
  Array.fold_left
    (fun acc (t, v) -> Float.max acc (v +. other_at t))
    (Array.fold_left (fun acc (_, v) -> Float.max acc v) 0. panel.other)
    panel.fault

let render panels =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "Figure 4-5: Byte Transfer Rates for Lisp-Del (bytes/second; 'o' = \
     imaginary-fault traffic, '#' = all other transfers)\n\n";
  List.iter
    (fun panel ->
      Buffer.add_string buf
        (Ascii_chart.stacked_timeline
           ~title:
             (Printf.sprintf "  strategy %s (completes at %.0fs, peak %.0f B/s)"
                (Strategy.name panel.strategy)
                panel.end_to_end_s (peak_rate panel))
           ~y_label:"B/s" ~x_label:"seconds since migration request"
           panel.other panel.fault);
      Buffer.add_char buf '\n')
    panels;
  Buffer.contents buf

let to_csv panels =
  Result_table.csv
    (Result_table.table "Figure 4-5: Byte Transfer Rates for Lisp-Del"
       ~keys:[ ("strategy", "strategy") ]
       [
         Result_table.column "second" "second" (Fixed 6);
         Result_table.column "fault" "fault_bytes_per_s" (Fixed 6);
         Result_table.column "other" "other_bytes_per_s" (Fixed 6);
       ]
       (List.concat_map
          (fun panel ->
            let fault_at = lookup panel.fault in
            Array.to_list
              (Array.map
                 (fun (t, other) ->
                   Result_table.row [ Strategy.name panel.strategy ]
                     (List.map Result_table.measured [ t; fault_at t; other ]))
                 panel.other))
          panels))
