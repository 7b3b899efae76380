(* Workload reconstruction: every representative must reproduce the
   paper's Tables 4-1/4-2 composition exactly, traces must cover exactly
   the specified touched set, and the access-pattern generators must have
   the shapes the paper describes. *)
open Accent_mem
open Accent_workloads

let reps = Representative.all

let test_all_specs_validate () =
  List.iter Spec.validate reps;
  Alcotest.(check int) "seven representatives" 7 (List.length reps)

(* Table 4-1, verbatim from the paper. *)
let table_4_1 =
  [
    ("Minprog", 142_336, 187_904, 330_240);
    ("Lisp-T", 2_203_136, 4_225_926_144, 4_228_129_280);
    ("Lisp-Del", 2_200_064, 4_225_929_216, 4_228_129_280);
    ("PM-Start", 449_024, 501_760, 950_784);
    ("PM-Mid", 446_464, 466_432, 912_896);
    ("PM-End", 492_032, 398_848, 890_880);
    ("Chess", 195_584, 305_152, 500_736);
  ]

(* Table 4-2 resident set sizes. *)
let table_4_2 =
  [
    ("Minprog", 71_680);
    ("Lisp-T", 190_464);
    ("Lisp-Del", 190_464);
    ("PM-Start", 132_096);
    ("PM-Mid", 190_976);
    ("PM-End", 302_080);
    ("Chess", 110_080);
  ]

let build spec =
  let _, proc = Accent_experiments.Trial.build_only ~spec () in
  proc

(* every page a trace references, in order, repeats included *)
let trace_pages trace =
  List.init
    (Accent_kernel.Trace.length trace)
    (Accent_kernel.Trace.page_at trace)

let test_composition_matches_table_4_1 () =
  List.iter
    (fun (name, real, realz, total) ->
      let spec = Option.get (Representative.by_name name) in
      let space = Accent_kernel.Proc.space_exn (build spec) in
      Alcotest.(check int) (name ^ " real") real (Address_space.real_bytes space);
      Alcotest.(check int) (name ^ " realz") realz
        (Address_space.zero_bytes space);
      Alcotest.(check int) (name ^ " total") total
        (Address_space.total_bytes space))
    table_4_1

let test_resident_sets_match_table_4_2 () =
  List.iter
    (fun (name, rs) ->
      let spec = Option.get (Representative.by_name name) in
      let space = Accent_kernel.Proc.space_exn (build spec) in
      Alcotest.(check int) (name ^ " rs") rs (Address_space.resident_bytes space))
    table_4_2

let test_by_name () =
  Alcotest.(check bool) "case-insensitive" true
    (Representative.by_name "lisp-del" = Some Representative.lisp_del);
  Alcotest.(check bool) "unknown" true (Representative.by_name "nope" = None)

let test_trace_touches_exactly_spec () =
  List.iter
    (fun spec ->
      let proc = build spec in
      let space = Accent_kernel.Proc.space_exn proc in
      (* distinct real pages in the trace = touched_real_pages; the trace
         may also touch zero pages *)
      let real_pages = Hashtbl.create 256 in
      List.iter
        (fun page ->
          match Address_space.presence_of_page space page with
          | Address_space.Zero_pending -> ()
          | _ -> Hashtbl.replace real_pages page ())
        (trace_pages proc.Accent_kernel.Proc.trace);
      Alcotest.(check int)
        (spec.Spec.name ^ " touched pages")
        spec.Spec.touched_real_pages
        (Hashtbl.length real_pages))
    reps

let test_rs_overlap_matches_spec () =
  List.iter
    (fun spec ->
      let proc = build spec in
      let space = Accent_kernel.Proc.space_exn proc in
      let resident = Hashtbl.create 256 in
      List.iter
        (fun (page, _) -> Hashtbl.replace resident page ())
        (Address_space.resident_pages space);
      let overlap = Hashtbl.create 256 in
      List.iter
        (fun page ->
          if Hashtbl.mem resident page then Hashtbl.replace overlap page ())
        (trace_pages proc.Accent_kernel.Proc.trace);
      Alcotest.(check int)
        (spec.Spec.name ^ " RS/touched overlap")
        spec.Spec.rs_touched_overlap (Hashtbl.length overlap))
    reps

let test_deterministic_construction () =
  let spec = Representative.minprog in
  let p1 = build spec and p2 = build spec in
  let steps p = trace_pages p.Accent_kernel.Proc.trace in
  Alcotest.(check (list int)) "identical traces" (steps p1) (steps p2)

(* --- Access_pattern --- *)

let rng () = Accent_util.Rng.create 77L

let universe n = Array.init n (fun i -> 1000 + i)

let test_choose_touched_count_exact () =
  List.iter
    (fun pattern ->
      let touched =
        Access_pattern.choose_touched pattern ~rng:(rng ())
          ~universe:(universe 500) ~count:123
      in
      Alcotest.(check int) "exact count" 123 (Array.length touched);
      (* sorted and drawn from the universe *)
      Array.iteri
        (fun i p ->
          Alcotest.(check bool) "in universe" true (p >= 1000 && p < 1500);
          if i > 0 then
            Alcotest.(check bool) "strictly increasing" true (p > touched.(i - 1)))
        touched)
    [
      Access_pattern.Sequential { streams = 3; revisit = 0.2; run = 20 };
      Access_pattern.Clustered_random { cluster = 2. };
      Access_pattern.Hot_cold { hot_fraction = 0.3; hot_prob = 0.8 };
    ]

let test_sequential_touched_is_runs () =
  let touched =
    Access_pattern.choose_touched
      (Access_pattern.Sequential { streams = 1; revisit = 0.; run = 10 })
      ~rng:(rng ()) ~universe:(universe 1000) ~count:100
  in
  (* count maximal consecutive runs; they should be ~count/run, not 1 *)
  let runs = ref 1 in
  Array.iteri
    (fun i p -> if i > 0 && p <> touched.(i - 1) + 1 then incr runs)
    touched;
  Alcotest.(check bool) "fragmented into ~10 runs" true
    (!runs >= 5 && !runs <= 20)

let test_generate_covers_and_counts () =
  let touched =
    Access_pattern.choose_touched
      (Access_pattern.Clustered_random { cluster = 2. })
      ~rng:(rng ()) ~universe:(universe 200) ~count:50
  in
  let trace =
    Access_pattern.generate
      (Access_pattern.Clustered_random { cluster = 2. })
      ~rng:(rng ()) ~touched ~refs:120 ~total_think_ms:1000.
  in
  Alcotest.(check bool) "at least refs steps" true
    (Accent_kernel.Trace.length trace >= 120);
  let seen = Hashtbl.create 64 in
  List.iter (fun page -> Hashtbl.replace seen page ()) (trace_pages trace);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "every touched page referenced" true
        (Hashtbl.mem seen p))
    touched;
  let think = Accent_kernel.Trace.total_think_ms trace in
  Alcotest.(check bool) "think time near target" true
    (think > 500. && think < 2000.)

let test_hot_cold_concentrates () =
  let touched =
    Access_pattern.choose_touched
      (Access_pattern.Hot_cold { hot_fraction = 0.2; hot_prob = 0.9 })
      ~rng:(rng ()) ~universe:(universe 500) ~count:100
  in
  let steps =
    trace_pages
      (Access_pattern.generate
         (Access_pattern.Hot_cold { hot_fraction = 0.2; hot_prob = 0.9 })
         ~rng:(rng ()) ~touched ~refs:5000 ~total_think_ms:1000.)
  in
  (* the hot 20% of pages should absorb the bulk of the references *)
  let hot = Hashtbl.create 32 in
  Array.iteri (fun i p -> if i < 20 then Hashtbl.replace hot p ()) touched;
  let hot_refs =
    List.fold_left
      (fun acc page -> if Hashtbl.mem hot page then acc + 1 else acc)
      0 steps
  in
  let ratio = float_of_int hot_refs /. float_of_int (List.length steps) in
  Alcotest.(check bool) "hot set dominates" true (ratio > 0.75)

let test_spec_validation_errors () =
  let bad field spec =
    try
      Spec.validate spec;
      Alcotest.failf "expected %s to be rejected" field
    with Invalid_argument _ -> ()
  in
  let base = Test_helpers.small_spec in
  bad "rs > real" { base with Spec.rs_bytes = base.Spec.real_bytes + 512 };
  bad "touched > real"
    { base with Spec.touched_real_pages = Spec.real_pages base + 1 };
  bad "overlap too large"
    { base with Spec.rs_touched_overlap = base.Spec.touched_real_pages + 1 };
  bad "refs < touched" { base with Spec.refs = 1 };
  bad "unaligned" { base with Spec.real_bytes = 1000 };
  bad "zero runs" { base with Spec.real_runs = 0 }

let suite =
  ( "workloads",
    [
      Alcotest.test_case "specs validate" `Quick test_all_specs_validate;
      Alcotest.test_case "Table 4-1 exact" `Quick
        test_composition_matches_table_4_1;
      Alcotest.test_case "Table 4-2 exact" `Quick
        test_resident_sets_match_table_4_2;
      Alcotest.test_case "by_name" `Quick test_by_name;
      Alcotest.test_case "trace touches spec exactly" `Quick
        test_trace_touches_exactly_spec;
      Alcotest.test_case "RS overlap exact" `Quick test_rs_overlap_matches_spec;
      Alcotest.test_case "deterministic construction" `Quick
        test_deterministic_construction;
      Alcotest.test_case "choose_touched exact count" `Quick
        test_choose_touched_count_exact;
      Alcotest.test_case "sequential runs" `Quick test_sequential_touched_is_runs;
      Alcotest.test_case "generate covers touched" `Quick
        test_generate_covers_and_counts;
      Alcotest.test_case "hot/cold concentrates" `Quick test_hot_cold_concentrates;
      Alcotest.test_case "spec validation errors" `Quick
        test_spec_validation_errors;
    ] )
