open Accent_core
open Accent_util

type panel = {
  strategy : Strategy.t;
  fault : (float * float) array;
  other : (float * float) array;
  end_to_end_s : float;
}

(* Element by element, to the longer length. *)
let sum a b =
  let at bins i = if i < Array.length bins then bins.(i) else 0 in
  Array.init (max (Array.length a) (Array.length b)) (fun i -> at a i + at b i)

(* The monitor's bins are one second wide, so each one's bytes are its
   bytes per second. *)
let per_second bins =
  Array.mapi (fun i bytes -> (float_of_int i, float_of_int bytes)) bins

let panels ?seed ?(spec = Accent_workloads.Representative.lisp_del) () =
  List.map
    (fun strategy ->
      let result = Trial.run ?seed ~spec ~strategy () in
      let bins =
        Accent_net.Transfer_monitor.bins_of result.Trial.world.World.monitor
      in
      {
        strategy;
        fault = per_second (bins Fault);
        (* bulk and control merge into the paper's "all other transfers" *)
        other = per_second (sum (bins Bulk) (bins Control));
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
