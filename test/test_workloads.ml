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
      ~zero_fill:(0, [||])
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
         ~rng:(rng ()) ~touched ~refs:5000 ~total_think_ms:1000.
         ~zero_fill:(0, [||]))
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

(* --- pinned builds --- *)

(* One build's fingerprint: the MD5 of its trace (page, think-time bits
   and write byte of every step), its resident pages, its real ranges
   and its segment labels.  Any change to a build's RNG draw order moves
   it. *)
let build_digest proc =
  let b = Buffer.create 4096 in
  let trace = proc.Accent_kernel.Proc.trace in
  for i = 0 to Accent_kernel.Trace.length trace - 1 do
    Printf.bprintf b "%d %Ld %b;"
      (Accent_kernel.Trace.page_at trace i)
      (Int64.bits_of_float (Accent_kernel.Trace.think_at trace i))
      (Accent_kernel.Trace.write_at trace i)
  done;
  let space = Accent_kernel.Proc.space_exn proc in
  List.iter
    (fun (page, _) -> Printf.bprintf b "r%d;" page)
    (Address_space.resident_pages space);
  List.iter
    (fun (lo, hi) -> Printf.bprintf b "R%d-%d;" lo hi)
    (Address_space.real_ranges space);
  List.iter (Printf.bprintf b "s%s;") (Address_space.vm_segment_labels space);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The lossy-wire benchmark's image shape at 2,048 real pages. *)
let lossy_spec =
  let real_pages = 2_048 in
  {
    Spec.name = "lossy-h0";
    description = "lossy-wire benchmark image";
    real_bytes = real_pages * Page.size;
    total_bytes = 4 * real_pages * Page.size;
    rs_bytes = real_pages / 32 * Page.size;
    touched_real_pages = real_pages / 4;
    rs_touched_overlap = real_pages / 64;
    real_runs = 16;
    vm_segments = 4;
    pattern =
      Access_pattern.Sequential { streams = 2; revisit = 0.2; run = 16 };
    refs = real_pages / 2;
    total_think_ms = 2_000.;
    zero_touch_pages = 2;
    base_addr = 0x40000;
  }

(* Specs at the edges of the build path: nothing touched; more zero-fill
   touches than references (several slots between two steps); sections
   shorter than their share, so the touched set is topped up from the
   first free positions; clusters that must reach the universe's end. *)
let edge_specs =
  let base = Test_helpers.small_spec in
  let all = Spec.real_pages base and rs = Spec.rs_pages base in
  [
    {
      base with
      Spec.name = "untouched";
      touched_real_pages = 0;
      rs_touched_overlap = 0;
      refs = 5;
    };
    {
      base with
      Spec.name = "zero-heavy";
      real_runs = 30;
      refs = 25;
      zero_touch_pages = 40;
    };
    {
      base with
      Spec.name = "topped-up";
      touched_real_pages = all;
      rs_touched_overlap = rs;
      refs = 100;
      pattern =
        Access_pattern.Sequential { streams = 3; revisit = 0.3; run = 5 };
    };
    {
      base with
      Spec.name = "clustered-to-end";
      touched_real_pages = all;
      rs_touched_overlap = rs;
      refs = 100;
      pattern = Access_pattern.Clustered_random { cluster = 8. };
    };
  ]

let pinned_builds () =
  let module C = Accent_experiments.Cluster_scenario in
  let trial ?seed ?write_fraction spec =
    build_digest
      (snd (Accent_experiments.Trial.build_only ?seed ?write_fraction ~spec ()))
  in
  let reps =
    List.concat_map
      (fun seed ->
        List.map
          (fun spec ->
            (Printf.sprintf "%s@%Ld" spec.Spec.name seed, trial ~seed spec))
          reps)
      [ 42L; 7L; 9001L ]
  in
  let churn =
    let world = Accent_core.World.create ~seed:42L ~n_hosts:1 () in
    let host = Accent_core.World.host world 0 in
    List.map
      (fun (i, think_ms) ->
        let spec = C.churn_job_spec C.default_churn ~think_ms i in
        (spec.Spec.name, build_digest (Spec.build host spec)))
      [ (0, 3_000.); (1, 1.5); (19_999, 4_321.25) ]
  in
  let others =
    ("PM-Start writes", trial ~write_fraction:0.15 Representative.pm_start)
    :: List.map
         (fun spec -> (spec.Spec.name, trial spec))
         (lossy_spec :: edge_specs)
  in
  reps @ churn @ others

let build_pins =
  [
    ("Minprog@42", "c0383d5fb142d65ec7efdebca5ee78df");
    ("Lisp-T@42", "2df5da1871c8e7690262d1111be1a459");
    ("Lisp-Del@42", "887dc1205bb0bd269dd8d48d2ccf96fd");
    ("PM-Start@42", "4e045b3386ad67b6ac5a3ce8a79af243");
    ("PM-Mid@42", "9dc898fadb95cda74f06d493b2d8f169");
    ("PM-End@42", "d40750a2b5adb150ef07ae3b0357b127");
    ("Chess@42", "b167cd34d536bc77b6dba39c893a42e8");
    ("Minprog@7", "9560d99eab47bf85156d2f7918725340");
    ("Lisp-T@7", "817e08167d8358b110a1ca2123cf46bd");
    ("Lisp-Del@7", "cbc7660ad1f9b6d7acf937a5cae24425");
    ("PM-Start@7", "4d22db248a6ea05c21ca2b213490ac88");
    ("PM-Mid@7", "cf9a258d5274752f2ec53a11ee85318c");
    ("PM-End@7", "f11e7739acf7c3484cea88c7c789caf5");
    ("Chess@7", "606cd9712221a7c468237c77c6561dc4");
    ("Minprog@9001", "d853b913fda0c36e7216f05de1da088f");
    ("Lisp-T@9001", "d0231604fa8935056887ec60e782d742");
    ("Lisp-Del@9001", "2e01c573c440ac85ab9bf4d806f87c10");
    ("PM-Start@9001", "4e7f720ed858ff50cf89534364ec587a");
    ("PM-Mid@9001", "aa0472a61c1a3f293a5d6c9387d12a7e");
    ("PM-End@9001", "ae09e5ffd438dd1f1859e5551c43e334");
    ("Chess@9001", "737bbc6ebcbe3648b5a25155a0c5460a");
    ("j0", "dc8c6da430b87b5b908ca2a13da0ebc7");
    ("j1", "17f88811d9c52a02b676bf316edb81e6");
    ("j19999", "7f73cb9374e4c1bd856f5502f0b83ac9");
    ("PM-Start writes", "39dc283a325c241628db56e4f0406933");
    ("lossy-h0", "98501e92f363150cc411398db19ef606");
    ("untouched", "177e61a90b6ce831e080a4c2506faefa");
    ("zero-heavy", "3140a89ee5f3b6f9efef916781a6d909");
    ("topped-up", "c4e2e16693454ed86389136e24915fb2");
    ("clustered-to-end", "d1ff572a061940b0a0e2abd5de8ed0a7");
  ]

let test_builds_pinned () =
  Alcotest.(check (list (pair string string)))
    "build digests" build_pins (pinned_builds ())

let test_spec_validation_errors () =
  let base = Test_helpers.small_spec in
  let bad field spec =
    match Spec.validate spec with
    | () -> Alcotest.failf "expected %s to be rejected" field
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (field ^ " names the spec") true
          (String.starts_with ~prefix:(base.Spec.name ^ ": ") msg)
  in
  bad "rs > real" { base with Spec.rs_bytes = base.Spec.real_bytes + 512 };
  bad "touched > real"
    { base with Spec.touched_real_pages = Spec.real_pages base + 1 };
  bad "overlap too large"
    { base with Spec.rs_touched_overlap = base.Spec.touched_real_pages + 1 };
  bad "refs < touched" { base with Spec.refs = 1 };
  bad "unaligned" { base with Spec.real_bytes = 1000 };
  bad "zero runs" { base with Spec.real_runs = 0 };
  (* each of these used to pass and then kill the build *)
  List.iter
    (fun think ->
      bad (Printf.sprintf "think %g" think)
        { base with Spec.total_think_ms = think })
    [ 0.; Float.nan; -5.; Float.infinity ];
  bad "negative zero touches" { base with Spec.zero_touch_pages = -1 };
  bad "negative touched"
    { base with Spec.touched_real_pages = -1; rs_touched_overlap = -1 }

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
      Alcotest.test_case "builds pinned" `Quick test_builds_pinned;
    ] )
