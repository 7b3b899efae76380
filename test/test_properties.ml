(* Whole-system property tests: random workload shapes pushed through full
   migrations under random strategies, checking the invariants that must
   hold regardless of parameters — completion, bit-exact content, byte
   accounting, phase ordering. *)
open Accent_mem
open Accent_net
open Accent_kernel
open Accent_core

(* Generator for small but varied workload specs. *)
let spec_gen =
  QCheck.Gen.(
    let* real_pages = int_range 8 80 in
    let* zero_pages = int_range 2 120 in
    let* touched = int_range 1 real_pages in
    let* rs_pages = int_range 0 real_pages in
    (* keep the RS satisfiable: its non-overlap part must fit in the
       untouched pages *)
    let min_overlap = max 0 (rs_pages - (real_pages - touched)) in
    let max_overlap = min touched rs_pages in
    let* overlap = int_range (min min_overlap max_overlap) max_overlap in
    let* runs = int_range 1 (max 1 (real_pages / 2)) in
    let* segments = int_range 1 6 in
    let* pattern_kind = int_range 0 2 in
    let* streams = int_range 1 3 in
    let* cluster = float_range 1. 4. in
    let* refs_factor = int_range 1 4 in
    let* zero_touch = int_range 0 3 in
    let pattern =
      match pattern_kind with
      | 0 ->
          Accent_workloads.Access_pattern.Sequential
            { streams; revisit = 0.2; run = 8 }
      | 1 -> Accent_workloads.Access_pattern.Clustered_random { cluster }
      | _ ->
          Accent_workloads.Access_pattern.Hot_cold
            { hot_fraction = 0.4; hot_prob = 0.8 }
    in
    return
      {
        Accent_workloads.Spec.name = "Prop";
        description = "generated";
        real_bytes = real_pages * Page.size;
        total_bytes = (real_pages + zero_pages) * Page.size;
        rs_bytes = rs_pages * Page.size;
        touched_real_pages = touched;
        rs_touched_overlap = overlap;
        real_runs = runs;
        vm_segments = segments;
        pattern;
        refs = touched * refs_factor;
        total_think_ms = 200.;
        zero_touch_pages = zero_touch;
        base_addr = 0x40000;
      })

let spec_print spec =
  Printf.sprintf "real=%d total=%d rs=%d touched=%d overlap=%d runs=%d"
    spec.Accent_workloads.Spec.real_bytes spec.Accent_workloads.Spec.total_bytes
    spec.Accent_workloads.Spec.rs_bytes
    spec.Accent_workloads.Spec.touched_real_pages
    spec.Accent_workloads.Spec.rs_touched_overlap
    spec.Accent_workloads.Spec.real_runs

let strategy_of_int n =
  match n mod 4 with
  | 0 -> Strategy.pure_copy
  | 1 -> Strategy.pure_iou ~prefetch:(n mod 5) ()
  | 2 -> Strategy.resident_set ~prefetch:(n mod 3) ()
  | _ -> Strategy.pre_copy ~max_rounds:3 ()

let arb =
  QCheck.make
    ~print:(fun (spec, n) ->
      Printf.sprintf "%s strat=%s" (spec_print spec)
        (Strategy.name (strategy_of_int n)))
    QCheck.Gen.(pair spec_gen (int_range 0 19))

(* Every page of the final space must be explainable: the generator
   pattern, the pattern with a store marker, zeros, or marked zeros. *)
let content_ok spec space =
  let tag = Accent_workloads.Spec.content_tag spec in
  let ok = ref true in
  List.iter
    (fun (lo, hi) ->
      let first = Page.index_of_addr lo and last = Page.index_of_addr (hi - 1) in
      for idx = first to last do
        match Address_space.page_data space idx with
        | None -> ()
        | Some data ->
            let expected = Page.pattern ~tag idx in
            let marked = Page.copy expected in
            Bytes.set marked 0 Proc.write_marker;
            let zero_marked = Page.zero () in
            Bytes.set zero_marked 0 Proc.write_marker;
            if
              not
                (Bytes.equal data expected || Bytes.equal data marked
               || Page.is_zero data
                || Bytes.equal data zero_marked)
            then ok := false
      done)
    (Address_space.real_ranges space);
  !ok

let prop_migration_roundtrip =
  QCheck.Test.make ~count:60 ~name:"random migrations complete with exact data"
    arb
    (fun (spec, n) ->
      let strategy = strategy_of_int n in
      let result =
        Accent_experiments.Trial.run ~write_fraction:0.2 ~spec ~strategy ()
      in
      let r = result.Accent_experiments.Trial.report in
      let proc = result.Accent_experiments.Trial.proc in
      r.Report.completed_at <> None
      && Proc.is_done proc
      && content_ok spec (Proc.space_exn proc)
      && Report.bytes_total r
         = Accent_net.Link.bytes_sent
             result.Accent_experiments.Trial.world.World.link)

let prop_phase_ordering =
  QCheck.Test.make ~count:40 ~name:"phase timestamps are ordered" arb
    (fun (spec, n) ->
      let strategy = strategy_of_int n in
      let result =
        Accent_experiments.Trial.run ~write_fraction:0.1 ~spec ~strategy ()
      in
      let r = result.Accent_experiments.Trial.report in
      let get = Option.get in
      get r.Report.requested_at <= get r.Report.excised_at
      && get r.Report.excised_at <= get r.Report.rimas_delivered_at
      && get r.Report.rimas_delivered_at <= get r.Report.inserted_at
      && get r.Report.inserted_at <= get r.Report.restarted_at
      && get r.Report.restarted_at <= get r.Report.completed_at)

(* Not true unconditionally: per-fault overhead is ~65% of a page, so a
   program touching nearly everything moves MORE bytes lazily (the paper's
   representatives topped out at 58% touched, hence its blanket claim).
   The invariant that does hold in general: with at most half the memory
   touched, laziness wins on bytes. *)
let prop_iou_ships_fewer_bytes_when_half_touched =
  QCheck.Test.make ~count:30
    ~name:"pure-IOU moves fewer bytes when <=50% of memory is touched"
    (QCheck.make ~print:spec_print spec_gen)
    (fun (spec : Accent_workloads.Spec.t) ->
      let spec =
        {
          spec with
          Accent_workloads.Spec.touched_real_pages =
            max 1
              (min spec.Accent_workloads.Spec.touched_real_pages
                 (Accent_workloads.Spec.real_pages spec / 2));
        }
      in
      let spec =
        {
          spec with
          Accent_workloads.Spec.rs_touched_overlap =
            min spec.Accent_workloads.Spec.rs_touched_overlap
              spec.Accent_workloads.Spec.touched_real_pages;
          refs = max spec.Accent_workloads.Spec.refs
                   spec.Accent_workloads.Spec.touched_real_pages;
        }
      in
      QCheck.assume
        (Accent_workloads.Spec.rs_pages spec
         - spec.Accent_workloads.Spec.rs_touched_overlap
        <= Accent_workloads.Spec.real_pages spec
           - spec.Accent_workloads.Spec.touched_real_pages);
      let bytes strategy =
        Report.bytes_total
          (Accent_experiments.Trial.run ~spec ~strategy ())
            .Accent_experiments.Trial.report
      in
      bytes (Strategy.pure_iou ()) <= bytes Strategy.pure_copy)

(* The fault-injecting transport must not cost reproducibility: the same
   seed and the same fault plan replay the same losses, the same
   retransmissions and the same clock, bit for bit. *)
let prop_lossy_runs_are_deterministic =
  QCheck.Test.make ~count:15
    ~name:"same seed and fault plan reproduce the run exactly" arb
    (fun (spec, n) ->
      let strategy = strategy_of_int n in
      let fault_plan = Accent_net.Fault_plan.iid 0.05 in
      let fingerprint () =
        let result =
          Accent_experiments.Trial.run ~seed:7L ~fault_plan ~spec ~strategy ()
        in
        let r = result.Accent_experiments.Trial.report in
        let monitor =
          result.Accent_experiments.Trial.world.World.monitor
        in
        ( ( Report.end_to_end_seconds r,
            Report.bytes_total r,
            r.Report.retransmits,
            r.Report.bytes_retransmit ),
          ( r.Report.bytes_ack,
            r.Report.transport_give_ups,
            r.Report.outcome,
            Accent_net.Transfer_monitor.bytes_total monitor,
            Accent_net.Transfer_monitor.messages_total monitor ) )
      in
      fingerprint () = fingerprint ())

let prop_excise_insert_identity =
  QCheck.Test.make ~count:40
    ~name:"excise/insert preserves composition exactly"
    (QCheck.make ~print:spec_print spec_gen)
    (fun spec ->
      let world, proc = Accent_experiments.Trial.build_only ~spec () in
      let space = Proc.space_exn proc in
      let before =
        ( Address_space.real_bytes space,
          Address_space.zero_bytes space,
          Address_space.total_bytes space )
      in
      let ok = ref false in
      Accent_kernel.Excise.excise (World.host world 0) proc ~k:(fun e ->
          Accent_kernel.Insert.insert (World.host world 1)
            ~core:e.Accent_kernel.Excise.core ~rimas:e.Accent_kernel.Excise.rimas
            ~k:(fun p ->
              let space' = Proc.space_exn p in
              ok :=
                before
                = ( Address_space.real_bytes space',
                    Address_space.zero_bytes space',
                    Address_space.total_bytes space' )));
      ignore (World.run world);
      !ok)

(* --- run-based residual ≡ page-list computation ------------------------- *)

(* The freeze path computes residual and cold tail by run subtraction
   against the sent set (Image_wire.unsent_runs), never touching a
   per-page list.  These properties pin that rewrite to the obvious
   O(pages) computation: enumerate every real page, drop the sent ones,
   coalesce what is left. *)

let coalesce_pages pages =
  List.fold_left
    (fun acc page ->
      match acc with
      | (lo, hi) :: rest when page = hi + 1 -> (lo, page) :: rest
      | _ -> (page, page) :: acc)
    [] pages
  |> List.rev

let real_pages_of_image image =
  List.concat_map
    (fun (lo, hi) ->
      let first = Page.index_of_addr lo in
      List.init ((hi - lo) / Page.size) (fun i -> first + i))
    (Proc_image.real_ranges image)

(* Apply random marks to a sent set and mirror them in a plain table;
   marks index into the image's real pages so they always land somewhere
   interesting (runs may span gaps — subtraction only sees real ranges). *)
let apply_marks tbl arr marks =
  let sent = Interval_map.create () in
  if Array.length arr > 0 then
    List.iter
      (fun (bulk, i, j) ->
        let i = i mod Array.length arr and j = j mod Array.length arr in
        let a = arr.(min i j) and b = arr.(max i j) in
        if bulk then begin
          for p = a to b do
            Hashtbl.replace tbl p ()
          done;
          Interval_map.set sent ~lo:a ~hi:(b + 1) ()
        end
        else begin
          Hashtbl.replace tbl a ();
          Interval_map.set sent ~lo:a ~hi:(a + 1) ()
        end)
      marks;
  sent

let marks_gen =
  QCheck.Gen.(
    small_list (triple bool (int_bound 10_000) (int_bound 10_000)))

let marked_image_gen = QCheck.Gen.pair spec_gen marks_gen

let print_marked (spec, marks) =
  Printf.sprintf "real=%d runs=%d marks=%d"
    spec.Accent_workloads.Spec.real_bytes spec.Accent_workloads.Spec.real_runs
    (List.length marks)

let prop_unsent_runs_equiv =
  QCheck.Test.make ~count:60 ~long_factor:50
    ~name:"unsent_runs = all real pages minus sent, coalesced"
    (QCheck.make ~print:print_marked marked_image_gen)
    (fun (spec, marks) ->
      let world, proc = Accent_experiments.Trial.build_only ~spec () in
      let image = Proc_image.capture (World.host world 0) proc in
      let tbl = Hashtbl.create 64 in
      let real = real_pages_of_image image in
      let sent =
        apply_marks tbl (Array.of_list real) marks
      in
      let expected =
        coalesce_pages (List.filter (fun p -> not (Hashtbl.mem tbl p)) real)
      in
      Image_wire.unsent_runs image ~sent = expected)

let chunk_equal (a : Accent_ipc.Memory_object.chunk)
    (b : Accent_ipc.Memory_object.chunk) =
  a.Accent_ipc.Memory_object.range = b.Accent_ipc.Memory_object.range
  &&
  match (a.content, b.content) with
  | Accent_ipc.Memory_object.Data ra, Accent_ipc.Memory_object.Data rb ->
      Page_run.equal ra rb
  | ca, cb -> ca = cb

let prop_precopy_residual_equiv =
  QCheck.Test.make ~count:60 ~long_factor:50
    ~name:"precopy residual chunks = data_chunks over the dirty+unsent list"
    (QCheck.make
       ~print:(fun (mi, _) -> print_marked mi)
       QCheck.Gen.(pair marked_image_gen (small_list (int_bound 10_000))))
    (fun ((spec, marks), dirty_picks) ->
      let world, proc = Accent_experiments.Trial.build_only ~spec () in
      let image = Proc_image.capture (World.host world 0) proc in
      let tbl = Hashtbl.create 64 in
      let real = real_pages_of_image image in
      let arr = Array.of_list real in
      let sent = apply_marks tbl arr marks in
      let written =
        if Array.length arr = 0 then []
        else List.map (fun i -> arr.(i mod Array.length arr)) dirty_picks
      in
      let unsent_pages =
        List.filter (fun p -> not (Hashtbl.mem tbl p)) real
      in
      let expected =
        Image_wire.image_data_chunks image ~missing:"prop"
          (written @ unsent_pages)
      in
      let got = Image_wire.precopy_residual_chunks image ~sent ~written in
      List.length got = List.length expected
      && List.for_all2 chunk_equal got expected)

(* --- run-based partial RIMAS ≡ per-page split ------------------------------ *)

(* A partial RIMAS in comparable form: each Data page run is kept or
   pulled (with the values the destination will see, read back out of the
   backing server for pulled ones); other chunks pass through. *)
type piece =
  | Kept of int * Page.value list
  | Pulled of int * Page.value list
  | Passed of Accent_ipc.Memory_object.chunk

let piece_equal a b =
  let values_equal xs ys =
    List.length xs = List.length ys && List.for_all2 Page.equal_value xs ys
  in
  match (a, b) with
  | Kept (la, va), Kept (lb, vb) | Pulled (la, va), Pulled (lb, vb) ->
      la = lb && values_equal va vb
  | Passed ca, Passed cb -> ca == cb
  | _ -> false

(* The reference: the per-page walk partial_rimas used to do — a table of
   kept collapsed offsets, every Data page probed against it, maximal
   same-kind stretches grouped. *)
let reference_partial_rimas (excised : Excise.excised) ~keep_pages =
  let kept = Hashtbl.create 64 in
  List.iter
    (fun page ->
      Option.iter
        (fun c -> Hashtbl.replace kept c ())
        (Context.collapsed_of_vaddr excised.Excise.layout
           (Page.addr_of_index page)))
    keep_pages;
  List.concat_map
    (fun (chunk : Accent_ipc.Memory_object.chunk) ->
      match chunk.Accent_ipc.Memory_object.content with
      | Accent_ipc.Memory_object.Data run ->
          let lo = chunk.Accent_ipc.Memory_object.range.Vaddr.lo in
          let groups = ref [] in
          Page_run.iteri
            (fun i v ->
              let off = lo + (i * Page.size) in
              let k = Hashtbl.mem kept off in
              match !groups with
              | (start, k', vs) :: rest when k' = k ->
                  groups := (start, k, v :: vs) :: rest
              | gs -> groups := (off, k, [ v ]) :: gs)
            run;
          List.rev_map
            (fun (start, k, vs) ->
              if k then Kept (start, List.rev vs)
              else Pulled (start, List.rev vs))
            !groups
      | Accent_ipc.Memory_object.Iou _ | Accent_ipc.Memory_object.Digest_refs _
        ->
          [ Passed chunk ])
    excised.Excise.rimas

let prop_partial_rimas_equiv =
  QCheck.Test.make ~count:60 ~long_factor:50
    ~name:"run-based partial_rimas = per-page keep/pull split"
    (QCheck.make
       ~print:(fun (spec, picks) ->
         Printf.sprintf "real=%d runs=%d picks=%d"
           spec.Accent_workloads.Spec.real_bytes
           spec.Accent_workloads.Spec.real_runs (List.length picks))
       QCheck.Gen.(pair spec_gen (small_list (int_bound 10_000))))
    (fun (spec, picks) ->
      let world, proc = Accent_experiments.Trial.build_only ~spec () in
      let host = World.host world 0 and manager = World.manager world 0 in
      let excised = Excise.capture host proc in
      let real = Array.of_list (real_pages_of_image excised.Excise.image) in
      (* most picks land on real pages; every fifth names a raw page index,
         usually outside every range, which must simply be ignored *)
      let keep_pages =
        List.map
          (fun i ->
            if i mod 5 = 0 || Array.length real = 0 then i
            else real.(i mod Array.length real))
          picks
      in
      let backing = Migration_manager.backing manager in
      let got =
        List.map
          (fun (chunk : Accent_ipc.Memory_object.chunk) ->
            let lo = chunk.Accent_ipc.Memory_object.range.Vaddr.lo in
            let pages =
              Vaddr.len chunk.Accent_ipc.Memory_object.range / Page.size
            in
            match chunk.Accent_ipc.Memory_object.content with
            | _ when List.memq chunk excised.Excise.rimas -> Passed chunk
            | Accent_ipc.Memory_object.Data run ->
                Kept (lo, List.init (Page_run.length run) (Page_run.get run))
            | Accent_ipc.Memory_object.Iou { segment_id; backing_port; offset }
              when backing_port = Backing_server.port backing && offset = lo ->
                Pulled
                  ( lo,
                    List.init pages (fun i ->
                        let run =
                          Accent_net.Content_store.read_run
                            (Backing_server.store backing) ~segment_id
                            ~offset:(offset + (i * Page.size)) ~pages:1
                        in
                        if Page_run.length run = 1 then Page_run.get run 0
                        else Page.zero_value) )
            | _ -> Passed chunk)
          (Transfer_engine.partial_rimas backing excised ~keep_pages)
      in
      let expected = reference_partial_rimas excised ~keep_pages in
      List.length got = List.length expected
      && List.for_all2 piece_equal got expected)

(* --- run-based assembly ≡ per-page cover ---------------------------------- *)

(* A destination at its push final: an AMap over a few dozen pages in
   random stretches of every class, a random staged set (some of it
   outside every range, which assembly must ignore) and disjoint IOU
   chunks with random segments and offsets that cover most pages. *)
let assemble_case_gen =
  QCheck.Gen.(
    triple
      (list_size (int_range 1 8) (pair (int_range 1 8) (int_bound 4)))
      (list_size (int_range 1 8)
         (triple (int_range 1 16) (int_bound 11) (int_bound 100)))
      (list_size (int_range 0 40) (int_bound 64)))

let print_assemble_case (amap, chunks, staged) =
  let pairs f l = String.concat ";" (List.map f l) in
  Printf.sprintf "amap=[%s] chunks=[%s] staged=[%s]"
    (pairs (fun (len, cls) -> Printf.sprintf "%d:%d" len cls) amap)
    (pairs
       (fun (len, seg, off) -> Printf.sprintf "%d:%d@%d" len seg off)
       chunks)
    (pairs string_of_int staged)

(* Lay the stretches end to end from page 0.  Class 4 is a second Real_mem
   weight; segment 0 is a hole no chunk covers. *)
let assemble_inputs (amap_stretches, chunk_stretches, staged_pages) =
  let addr = Page.addr_of_index in
  let lay stretches f =
    snd
      (List.fold_left
         (fun (page, acc) ((len, _, _) as s) ->
           (page + len, match f page s with Some x -> x :: acc | None -> acc))
         (0, []) stretches)
    |> List.rev
  in
  let amap =
    Amap.of_ranges
      (lay
         (List.map (fun (len, cls) -> (len, cls, 0)) amap_stretches)
         (fun page (len, cls, _) ->
           Some
             ( addr page,
               addr (page + len),
               match cls with
               | 0 -> Accessibility.Real_zero_mem
               | 2 -> Accessibility.Imag_mem
               | 3 -> Accessibility.Bad_mem
               | _ -> Accessibility.Real_mem )))
  in
  let backing_port = Accent_ipc.Port.fresh (Accent_sim.Ids.create ()) in
  let iou_chunks =
    lay chunk_stretches (fun page (len, segment_id, off) ->
        if segment_id = 0 then None
        else
          Some
            {
              Accent_ipc.Memory_object.range =
                Vaddr.range (addr page) (addr (page + len));
              content =
                Accent_ipc.Memory_object.Iou
                  { segment_id; backing_port; offset = off * Page.size };
            })
  in
  let staged = Accent_util.Int_tbl.create 16 in
  List.iter
    (fun p ->
      Accent_util.Int_tbl.replace staged p (Page.pattern_value ~tag:7 p))
    staged_pages;
  (staged, amap, iou_chunks)

(* The reference: walk every page of each Real_mem/Imag_mem range; a
   staged page becomes its value, any other the IOU chunk covering it (the
   first in list order), and a page with neither aborts.  Maximal
   stretches of one range with the same source become one piece, laid out
   from collapsed offset 0. *)
let reference_assemble staged ~amap ~iou_chunks =
  let covering addr =
    List.find_index
      (fun (c : Accent_ipc.Memory_object.chunk) ->
        c.Accent_ipc.Memory_object.range.Vaddr.lo <= addr
        && addr < c.Accent_ipc.Memory_object.range.Vaddr.hi)
      iou_chunks
  in
  (* (range number, source: -1 staged or chunk number, first address,
     pages, values reversed), newest piece first *)
  let pieces = ref [] in
  List.iteri
    (fun r (lo, hi, cls) ->
      match (cls : Accessibility.t) with
      | Real_zero_mem | Bad_mem -> ()
      | Real_mem | Imag_mem ->
          for idx = Page.index_of_addr lo to Page.index_of_addr (hi - 1) do
            let addr = Page.addr_of_index idx in
            let source, value =
              match Accent_util.Int_tbl.find_opt staged idx with
              | Some v -> (-1, [ v ])
              | None -> (
                  match covering addr with
                  | Some k -> (k, [])
                  | None -> raise (Image_wire.Abort "reference"))
            in
            match !pieces with
            | (r', s, first, n, vs) :: rest when r' = r && s = source ->
                pieces := (r, s, first, n + 1, value @ vs) :: rest
            | ps -> pieces := (r, source, addr, 1, value) :: ps
          done)
    (Amap.ranges amap);
  let cursor = ref 0 in
  List.rev !pieces
  |> List.map (fun (_, source, first, pages, rev_values) ->
         let content =
           if source < 0 then
             Accent_ipc.Memory_object.Data
               (Page_run.of_list (List.rev rev_values))
           else
             let c = List.nth iou_chunks source in
             match c.Accent_ipc.Memory_object.content with
             | Accent_ipc.Memory_object.Iou iou ->
                 Accent_ipc.Memory_object.Iou
                   {
                     iou with
                     offset =
                       iou.offset + first
                       - c.Accent_ipc.Memory_object.range.Vaddr.lo;
                   }
             | content -> content
         in
         let len = pages * Page.size in
         let chunk =
           {
             Accent_ipc.Memory_object.range =
               Vaddr.range !cursor (!cursor + len);
             content;
           }
         in
         cursor := !cursor + len;
         chunk)

let prop_assemble_equiv =
  QCheck.Test.make ~count:60 ~long_factor:50
    ~name:"run-based assemble = per-page staged/IOU cover"
    (QCheck.make ~print:print_assemble_case assemble_case_gen)
    (fun case ->
      let staged, amap, iou_chunks = assemble_inputs case in
      let outcome f =
        match f staged ~amap ~iou_chunks with
        | exception Image_wire.Abort _ -> None
        | chunks -> Some chunks
      in
      match
        (outcome Image_wire.assemble, outcome reference_assemble)
      with
      | None, None -> true
      | Some got, Some expected ->
          List.length got = List.length expected
          && List.for_all2 chunk_equal got expected
      | _ -> false)

(* The ARQ receiver's SACK selection, from the highest seq received
   down, against the scan of the whole bitmap it replaced: at most 16
   received seqs at or above [cum], the highest ones, ascending. *)
let full_scan_sacks ~got ~cum =
  let sacks = ref [] and n = ref 0 in
  for i = Array.length got - 1 downto cum do
    if got.(i) && !n < 16 then begin
      sacks := i :: !sacks;
      incr n
    end
  done;
  !sacks

let prop_sacks_equal_full_scan =
  QCheck.Test.make ~long_factor:50
    ~name:"bounded SACK selection = full-bitmap scan"
    (QCheck.make
       ~print:(fun (got, cum) ->
         Printf.sprintf "cum=%d got=%s" cum
           (String.init (Array.length got) (fun i ->
                if got.(i) then '1' else '0')))
       QCheck.Gen.(
         let* len = int_range 0 300 in
         let* density = float_range 0. 1. in
         let* got = array_repeat len (map (fun x -> x < density) float) in
         let* cum = int_range 0 len in
         return (got, cum)))
    (fun (got, cum) ->
      let top = ref (-1) in
      Array.iteri (fun i b -> if b then top := i) got;
      Reliable.sacks ~got ~cum ~top:!top = full_scan_sacks ~got ~cum)

let suite =
  ( "properties",
    [
      QCheck_alcotest.to_alcotest prop_migration_roundtrip;
      QCheck_alcotest.to_alcotest prop_unsent_runs_equiv;
      QCheck_alcotest.to_alcotest prop_precopy_residual_equiv;
      QCheck_alcotest.to_alcotest prop_partial_rimas_equiv;
      QCheck_alcotest.to_alcotest prop_assemble_equiv;
      QCheck_alcotest.to_alcotest prop_phase_ordering;
      QCheck_alcotest.to_alcotest prop_iou_ships_fewer_bytes_when_half_touched;
      QCheck_alcotest.to_alcotest prop_lossy_runs_are_deterministic;
      QCheck_alcotest.to_alcotest prop_excise_insert_identity;
      QCheck_alcotest.to_alcotest prop_sacks_equal_full_scan;
    ] )
