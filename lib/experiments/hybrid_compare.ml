open Accent_core
module R = Result_table

let strategies () =
  [ Strategy.pre_copy (); Strategy.working_set (); Strategy.hybrid () ]

let pulled_bytes (r : Report.t) =
  Accent_mem.Page.size * (r.Report.dest_faults_imag + r.Report.prefetch_extra)

(* Push-style strategies account every round (and the freeze residual) in
   precopy_bytes; for working-set the pushed data is the physical portion
   of the RIMAS, i.e. what was fetched remotely minus the pulled pages. *)
let pushed_bytes (r : Report.t) =
  if r.Report.frozen_at <> None then r.Report.precopy_bytes
  else r.Report.remote_real_bytes_fetched - pulled_bytes r

(* The default warm-up matches the hybrid/ws recency window: the process
   executes at the source long enough for the working-set estimate to
   mean something before migration is requested. *)
let rows ?(seed = 42L) ?(write_fraction = 0.1) ?(migrate_after_ms = 5_000.) ()
    =
  List.concat_map
    (fun spec ->
      List.map
        (fun strategy ->
          Trial.summary
            (Trial.run ~seed ~write_fraction ~migrate_after_ms ~spec ~strategy
               ()))
        (strategies ()))
    Accent_workloads.Representative.all

(* One group of rows per workload, ruled off from the next. *)
let render rows =
  let workload (row : Trial.summary) = row.spec.Accent_workloads.Spec.name in
  let line (row : Trial.summary) =
    let r = row.report in
    R.row [ workload row; Strategy.name row.strategy ]
      (List.map R.measured
         [
           float_of_int (pushed_bytes r);
           float_of_int (pulled_bytes r);
           Report.downtime_seconds r;
           Report.end_to_end_seconds r;
         ])
  in
  let rec lines = function
    | a :: (b :: _ as rest) when workload a <> workload b ->
        line a :: R.Rule :: lines rest
    | a :: rest -> line a :: lines rest
    | [] -> []
  in
  R.text
    (R.table
       "Hybrid push/pull vs pre-copy and working-set (write fraction 0.1)"
       ~keys:[ ("workload", "workload"); ("strategy", "strategy") ]
       [
         R.column "pushed" "pushed_bytes" Bytes;
         R.column "pulled" "pulled_bytes" Bytes;
         R.column "downtime (s)" "downtime_s" (Fixed 2);
         R.column "end-to-end (s)" "end_to_end_s" (Fixed 2);
       ]
       (lines rows))

let to_csv rows =
  let header =
    R.csv_line
      [
        "workload";
        "strategy";
        "pushed_bytes";
        "pulled_bytes";
        "downtime_s";
        "end_to_end_s";
        "outcome";
      ]
  in
  let lines =
    List.map
      (fun (row : Trial.summary) ->
        let r = row.report in
        R.csv_line
          [
            row.spec.Accent_workloads.Spec.name;
            Strategy.name row.strategy;
            string_of_int (pushed_bytes r);
            string_of_int (pulled_bytes r);
            Printf.sprintf "%.3f" (Report.downtime_seconds r);
            Printf.sprintf "%.3f" (Report.end_to_end_seconds r);
            Report.outcome_name r.Report.outcome;
          ])
      rows
  in
  String.concat "\n" (header :: lines) ^ "\n"
