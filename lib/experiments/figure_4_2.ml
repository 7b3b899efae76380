open Accent_core

let sum (result : Trial.summary) =
  Report.transfer_plus_execution_seconds result.Trial.report

let speedup_pct ~baseline result =
  let c = sum baseline in
  (c -. sum result) /. Float.max 1e-9 c *. 100.

let cells (rep : Sweep.rep_results) =
  List.map
    (fun (p, r) ->
      (Printf.sprintf "iou pf%d" p, speedup_pct ~baseline:rep.Sweep.copy r))
    rep.Sweep.iou
  @ List.map
      (fun (p, r) ->
        (Printf.sprintf "rs pf%d" p, speedup_pct ~baseline:rep.Sweep.copy r))
      rep.Sweep.rs

let render sweep =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Figure 4-2: Percent Speedup over Pure-Copy (transfer + remote \
     execution; negative = slowdown)\n";
  List.iter
    (fun (rep : Sweep.rep_results) ->
      Buffer.add_string buf
        (Accent_util.Ascii_chart.hbar_groups ~unit_label:"%" ~title:""
           [ (rep.Sweep.spec.Accent_workloads.Spec.name, cells rep) ]))
    sweep;
  Buffer.contents buf

let pf1_always_helps sweep =
  List.for_all
    (fun (rep : Sweep.rep_results) ->
      match
        (List.assoc_opt 0 rep.Sweep.iou, List.assoc_opt 1 rep.Sweep.iou)
      with
      | Some pf0, Some pf1 -> sum pf1 <= sum pf0 +. 1e-9
      | _ -> true)
    sweep
