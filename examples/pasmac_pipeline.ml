(* The paper's motivating file-processing workload: the Pasmac macro
   processor migrated early (PM-Start), mid-life (PM-Mid) and late
   (PM-End), under each transfer strategy.

   Shows the §4.3.4 breakeven effect: a program that will still touch most
   of its address space (PM-Start, 58%) is a poor copy-on-reference
   candidate without prefetch, while one migrated near the end of its life
   (PM-End, 27% — right at the paper's quarter-of-RealMem breakeven) wins
   under IOU outright.

   Run with: dune exec examples/pasmac_pipeline.exe *)

open Accent_core
open Accent_workloads

let strategies =
  [
    Strategy.pure_copy;
    Strategy.pure_iou ();
    Strategy.pure_iou ~prefetch:7 ();
    Strategy.resident_set ~prefetch:1 ();
  ]

let () =
  let module R = Accent_experiments.Result_table in
  let row spec =
    let totals =
      List.map
        (fun strategy ->
          let result = Accent_experiments.Trial.run ~spec ~strategy () in
          Report.transfer_plus_execution_seconds
            result.Accent_experiments.Trial.report)
        strategies
    in
    let best = List.fold_left Float.min infinity totals in
    R.row [ spec.Spec.name ]
      (List.map
         (fun t ->
           R.Label (Printf.sprintf "%.1f%s" t (if t = best then " *" else "")))
         totals)
  in
  print_string
    (R.text
       (R.table
          "Pasmac migration timing choices (transfer + remote execution, \
           seconds; best per row marked *)"
          ~keys:[ ("migrated at", "migrated_at") ]
          (List.map
             (fun s ->
               let name = Strategy.name s in
               R.column name name (Text Right))
             strategies)
          (List.map row Representative.[ pm_start; pm_mid; pm_end ])));
  print_endline
    "\nReading the rows: early in life most of the file data is still\n\
     ahead, so eager prefetch is what makes lazy shipment pay; by PM-End\n\
     the process touches so little that pure IOU wins even without help."
