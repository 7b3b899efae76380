open Accent_core
open Accent_util
module R = Result_table
module Space = Accent_mem.Address_space

let paper_column header csv format =
  { (R.column header csv format) with R.in_paper = true }

let name (spec : Accent_workloads.Spec.t) = spec.Accent_workloads.Spec.name
let pct part whole = 100. *. float_of_int part /. float_of_int whole

(* The key of a one-row-per-process table. *)
let process = [ ("", "process") ]

(* One row per spec, from the address space of its process built at the
   migration point. *)
let of_built ?seed ?(specs = Accent_workloads.Representative.all) values =
  List.map
    (fun spec ->
      let _, proc = Trial.build_only ?seed ~spec () in
      R.row [ name spec ]
        (List.map R.measured (values (Accent_kernel.Proc.space_exn proc))))
    specs

let table_4_1 ?seed ?specs () =
  R.table "Table 4-1: Representative Address Space Sizes in Bytes" ~keys:process
    [
      R.column "Real" "real_bytes" Bytes;
      R.column "RealZ" "realz_bytes" Bytes;
      R.column "Total" "total_bytes" Bytes;
      R.column "% RealZ" "pct_realz" (Fixed 1);
    ]
    (of_built ?seed ?specs (fun space ->
         let realz = Space.zero_bytes space in
         let total = Space.total_bytes space in
         [
           float_of_int (Space.real_bytes space);
           float_of_int realz;
           float_of_int total;
           pct realz total;
         ]))

let table_4_2 ?seed ?specs () =
  R.table "Table 4-2: Representative Resident Sets" ~keys:process
    [
      R.column "RS Size" "rs_bytes" Bytes;
      R.column "% of Real" "pct_of_real" (Fixed 1);
      R.column "% of Total" "pct_of_total" (Fixed 3);
    ]
    (of_built ?seed ?specs (fun space ->
         let rs = Space.resident_bytes space in
         [
           float_of_int rs;
           pct rs (Space.real_bytes space);
           pct rs (Space.total_bytes space);
         ]))

let of_sweep sweep cells =
  List.map
    (fun (rep : Sweep.rep_results) -> R.row [ name rep.Sweep.spec ] (cells rep))
    sweep

(* Three measured cells beside the paper's values for this process, where
   the paper printed a row for it. *)
let beside paper (rep : Sweep.rep_results) (a, b, c) =
  let printed = List.assoc_opt (name rep.Sweep.spec) paper in
  let cell v pick =
    R.Number { R.measured = v; paper = Option.map pick printed }
  in
  [
    cell a (fun (x, _, _) -> x);
    cell b (fun (_, y, _) -> y);
    cell c (fun (_, _, z) -> z);
  ]

let table_4_3 sweep =
  let shipped (rep : Sweep.rep_results) (result : Trial.summary) =
    let fetched = result.Trial.report.Report.remote_real_bytes_fetched in
    Accent_workloads.Spec.
      [
        R.measured (pct fetched rep.Sweep.spec.real_bytes);
        R.measured (pct fetched rep.Sweep.spec.total_bytes);
      ]
  in
  R.table "Table 4-3: Percent of Address Space Accessed" ~keys:process
    [
      R.column "IOU %Real" "iou_pct_real" (Fixed 1);
      R.column "[%Total]" "iou_pct_total" (Bracketed 3);
      R.column "RS %Real" "rs_pct_real" (Fixed 1);
      R.column "[%Total]" "rs_pct_total" (Bracketed 3);
    ]
    (of_sweep sweep (fun rep ->
         shipped rep (Sweep.iou_at rep 0) @ shipped rep (Sweep.rs_at rep 0)))

let table_4_4 sweep =
  R.table
    "Table 4-4: Process Excision Times in Seconds (paper values in \
     parentheses; Insert column is this system's InsertProcess time)"
    ~keys:process
    [
      paper_column "AMap" "amap_s" (Fixed 2);
      paper_column "RIMAS" "rimas_s" (Fixed 2);
      paper_column "Overall" "overall_s" (Fixed 2);
      R.column "Insert" "insert_s" (Fixed 2);
    ]
    (of_sweep sweep (fun rep ->
         let report = (Sweep.iou_at rep 0).Trial.report in
         match report.Report.excise with
         | None -> failwith "trial without excise timings"
         | Some t ->
             let s ms = ms /. 1000. in
             Accent_kernel.Excise.(
               beside Paper.table_4_4 rep
                 (s t.amap_ms, s t.rimas_ms, s t.overall_ms))
             @ [
                 R.measured
                   (Option.value report.Report.insert_ms ~default:0. /. 1000.);
               ]))

let rimas (result : Trial.summary) =
  Report.rimas_transfer_seconds result.Trial.report

let table_4_5 sweep =
  R.table
    "Table 4-5: Address Space Transfer Times in Seconds (paper values in \
     parentheses)"
    ~keys:process
    [
      paper_column "Pure-IOU" "iou_s" (Fixed 2);
      paper_column "RS" "rs_s" (Fixed 2);
      paper_column "Copy" "copy_s" (Fixed 2);
    ]
    (of_sweep sweep (fun rep ->
         beside Paper.table_4_5 rep
           ( rimas (Sweep.iou_at rep 0),
             rimas (Sweep.rs_at rep 0),
             rimas rep.Sweep.copy )))

(* --- Figures 4-1..4-4: one long-form row per trial --- *)

let remote_seconds (result : Trial.summary) =
  Report.remote_execution_seconds result.Trial.report

let bytes (result : Trial.summary) =
  float_of_int (Report.bytes_total result.Trial.report)

let message_seconds (result : Trial.summary) =
  result.Trial.report.Report.message_seconds

let transfer_plus_execution (result : Trial.summary) =
  Report.transfer_plus_execution_seconds result.Trial.report

let speedup_pct ~baseline result =
  let c = transfer_plus_execution baseline in
  (c -. transfer_plus_execution result) /. Float.max 1e-9 c *. 100.

let long_form title ~csv ~copy metric sweep =
  let rows =
    List.concat_map
      (fun (rep : Sweep.rep_results) ->
        let row strategy prefetch result =
          R.row
            [ name rep.Sweep.spec; strategy; string_of_int prefetch ]
            [ R.measured (metric rep result) ]
        in
        List.map (fun (p, r) -> row "iou" p r) rep.Sweep.iou
        @ List.map (fun (p, r) -> row "rs" p r) rep.Sweep.rs
        @ if copy then [ row "copy" 0 rep.Sweep.copy ] else [])
      sweep
  in
  R.table title
    ~keys:[ ("", "process"); ("", "strategy"); ("", "prefetch") ]
    [ R.column "value" csv (Fixed 2) ]
    rows

let figure_4_1 =
  long_form "Figure 4-1: Remote Execution Times in Seconds" ~csv:"value"
    ~copy:true (fun _ -> remote_seconds)

let figure_4_2 =
  long_form
    "Figure 4-2: Percent Speedup over Pure-Copy (transfer + remote \
     execution; negative = slowdown)"
    ~csv:"speedup_pct" ~copy:false (fun rep ->
      speedup_pct ~baseline:rep.Sweep.copy)

let figure_4_3 =
  long_form "Figure 4-3: Bytes Transferred per Trial" ~csv:"value" ~copy:true
    (fun _ -> bytes)

let figure_4_4 =
  long_form "Figure 4-4: Message Processing Costs per Trial (seconds)"
    ~csv:"value" ~copy:true (fun _ -> message_seconds)

(* The long-form table turned wide: one row per process, one column per
   (strategy, prefetch) cell, labelled "iou pf0" .. "copy". *)
let wide (t : R.t) =
  let label (r : R.row) =
    match r.R.keys with
    | [ _; "copy"; _ ] -> "copy"
    | [ _; strategy; prefetch ] -> strategy ^ " pf" ^ prefetch
    | _ -> invalid_arg "Paper_tables: not a long-form figure row"
  in
  let groups =
    List.fold_right
      (fun (r : R.row) groups ->
        let p = List.hd r.R.keys in
        match groups with
        | (q, rs) :: rest when q = p -> (p, r :: rs) :: rest
        | _ -> (p, [ r ]) :: groups)
      (R.rows t) []
  in
  let value = List.hd t.R.columns in
  {
    t with
    R.key_headers = process;
    columns =
      (match groups with
      | [] -> []
      | (_, first) :: _ ->
          List.map (fun r -> { value with R.header = label r }) first);
    lines =
      List.map
        (fun (p, rs) -> R.row [ p ] (List.concat_map (fun r -> r.R.cells) rs))
        groups;
  }

let grid t = R.text (wide t)

let chart ~title ~unit_label t =
  let t = wide t in
  (* each representative's panel is scaled individually, as in the
     paper's figures *)
  String.concat ""
    ((title ^ "\n")
    :: List.map
         (fun (r : R.row) ->
           Ascii_chart.hbar_groups ~unit_label ~title:""
             [
               ( List.hd r.R.keys,
                 List.map2
                   (fun (c : R.column) (x : R.cell) ->
                     match x with
                     | R.Number n -> (c.R.header, n.R.measured)
                     | R.Label _ -> invalid_arg "Paper_tables.chart: a label")
                   t.R.columns r.R.cells );
             ])
         (R.rows t))

(* --- Figure 4-1's footnote --- *)

let iou_penalty rep =
  remote_seconds (Sweep.iou_at rep 0)
  /. Float.max 1e-9 (remote_seconds rep.Sweep.copy)

let hit_ratio rep ~prefetch =
  Report.prefetch_hit_ratio (Sweep.iou_at rep prefetch).Trial.report

let penalties sweep =
  String.concat ""
    ("\n  IOU/copy execution penalty and prefetch hit ratios (IOU trials):\n"
    :: List.map
         (fun (rep : Sweep.rep_results) ->
           let ratios =
             List.filter_map
               (fun (p, _) ->
                 match hit_ratio rep ~prefetch:p with
                 | Some r when p > 0 ->
                     Some (Printf.sprintf "pf%d:%.0f%%" p (100. *. r))
                 | _ -> None)
               rep.Sweep.iou
           in
           Printf.sprintf "    %-9s penalty %5.1fx   hits %s\n"
             (name rep.Sweep.spec) (iou_penalty rep)
             (if ratios = [] then "-" else String.concat " " ratios))
         sweep)
