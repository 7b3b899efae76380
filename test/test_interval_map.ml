(* Interval map: unit cases for splitting/coalescing and for each shape
   of in-place splice, plus a model-based qcheck suite comparing every
   query against a naive per-point array over a small domain after every
   update. *)
open Accent_mem

let ranges_t = Alcotest.(list (triple int int string))
let ranges m = Interval_map.ranges m

let find_opt m x =
  match Interval_map.find m x with v -> Some v | exception Not_found -> None

(* A fresh map carrying the given (lo, hi, v) assignments, in order. *)
let of_sets ?equal sets =
  let m = Interval_map.create ?equal () in
  List.iter (fun (lo, hi, v) -> Interval_map.set m ~lo ~hi v) sets;
  m

let test_empty () =
  let m = Interval_map.create () in
  Alcotest.(check bool) "empty" true (Interval_map.cardinal m = 0);
  Alcotest.(check (option string)) "find" None (find_opt m 5);
  Alcotest.(check int) "length" 0 (Interval_map.total_length m)

let test_set_and_find () =
  let m = of_sets [ (10, 20, "a") ] in
  Alcotest.(check (option string)) "inside" (Some "a") (find_opt m 15);
  Alcotest.(check (option string)) "lo inclusive" (Some "a") (find_opt m 10);
  Alcotest.(check (option string)) "hi exclusive" None (find_opt m 20);
  Alcotest.(check (option string)) "below" None (find_opt m 9);
  Alcotest.(check string) "find" "a" (Interval_map.find m 10);
  Alcotest.check_raises "find unassigned" Not_found (fun () ->
      ignore (Interval_map.find m 20))

let test_overwrite_splits () =
  let m = of_sets [ (0, 30, "a"); (10, 20, "b") ] in
  Alcotest.check ranges_t "split into three"
    [ (0, 10, "a"); (10, 20, "b"); (20, 30, "a") ]
    (ranges m)

let test_coalesce_adjacent_equal () =
  let m = of_sets [ (0, 10, "a"); (10, 20, "a") ] in
  Alcotest.check ranges_t "coalesced" [ (0, 20, "a") ] (ranges m);
  Alcotest.(check int) "one interval" 1 (Interval_map.cardinal m)

let test_no_coalesce_different () =
  let m = of_sets [ (0, 10, "a"); (10, 20, "b") ] in
  Alcotest.(check int) "two intervals" 2 (Interval_map.cardinal m)

let test_middle_overwrite_rejoins () =
  let m = of_sets [ (0, 30, "a"); (10, 20, "b"); (10, 20, "a") ] in
  Alcotest.check ranges_t "rejoined" [ (0, 30, "a") ] (ranges m)

let test_clear () =
  let m = of_sets [ (0, 30, "a") ] in
  Interval_map.clear m ~lo:10 ~hi:20;
  Alcotest.check ranges_t "hole" [ (0, 10, "a"); (20, 30, "a") ] (ranges m);
  Alcotest.(check int) "length" 20 (Interval_map.total_length m)

(* clear boundary-overhang edge cases: an interval may stick out of the
   cleared range on the left, the right, both sides, or neither. *)

let test_carve_overhang_left_only () =
  let m = of_sets [ (0, 20, "a") ] in
  Interval_map.clear m ~lo:10 ~hi:30;
  Alcotest.check ranges_t "left stub survives" [ (0, 10, "a") ] (ranges m);
  Alcotest.(check bool) "invariants" true (Interval_map.check_invariants m)

let test_carve_overhang_right_only () =
  let m = of_sets [ (10, 30, "a") ] in
  Interval_map.clear m ~lo:0 ~hi:20;
  Alcotest.check ranges_t "right stub survives" [ (20, 30, "a") ] (ranges m);
  Alcotest.(check bool) "invariants" true (Interval_map.check_invariants m)

let test_carve_exact_match () =
  let m = of_sets [ (10, 20, "a") ] in
  Interval_map.clear m ~lo:10 ~hi:20;
  Alcotest.(check bool) "fully removed" true (Interval_map.cardinal m = 0)

let test_carve_boundary_abutting_untouched () =
  (* neighbours that merely abut the cleared range must not be split *)
  let m = of_sets [ (0, 10, "a"); (10, 20, "b"); (20, 30, "c") ] in
  Interval_map.clear m ~lo:10 ~hi:20;
  Alcotest.check ranges_t "neighbours intact"
    [ (0, 10, "a"); (20, 30, "c") ]
    (ranges m);
  Alcotest.(check int) "two intervals" 2 (Interval_map.cardinal m)

let test_carve_spanning_many () =
  (* the cleared range swallows whole intervals and clips the two ends *)
  let m = of_sets [ (0, 10, "a"); (15, 25, "b"); (30, 40, "c") ] in
  Interval_map.clear m ~lo:5 ~hi:35;
  Alcotest.check ranges_t "ends clipped, middle gone"
    [ (0, 5, "a"); (35, 40, "c") ]
    (ranges m);
  Alcotest.(check int) "length" 10 (Interval_map.total_length m);
  Alcotest.(check bool) "invariants" true (Interval_map.check_invariants m)

let test_carve_empty_range_noop () =
  let m = of_sets [ (0, 10, "a") ] in
  Interval_map.clear m ~lo:5 ~hi:5;
  Alcotest.check ranges_t "untouched" [ (0, 10, "a") ] (ranges m)

let test_carve_in_gap_noop () =
  let m = of_sets [ (0, 10, "a"); (20, 30, "b") ] in
  Interval_map.clear m ~lo:12 ~hi:18;
  Alcotest.check ranges_t "gap clear is a no-op"
    [ (0, 10, "a"); (20, 30, "b") ]
    (ranges m)

let test_empty_range_noop () =
  let m = of_sets [ (5, 5, "a") ] in
  Alcotest.(check bool) "still empty" true (Interval_map.cardinal m = 0)

let test_fold_range_clips () =
  let m = of_sets [ (0, 100, "a") ] in
  let pieces =
    Interval_map.fold_range m ~lo:30 ~hi:60 ~init:[] ~f:(fun acc lo hi v ->
        (lo, hi, v) :: acc)
  in
  Alcotest.check ranges_t "clipped" [ (30, 60, "a") ] pieces

let test_fold_range_spans_gaps () =
  let m = of_sets [ (0, 10, "a"); (20, 30, "b") ] in
  let pieces =
    Interval_map.fold_range m ~lo:5 ~hi:25 ~init:[] ~f:(fun acc lo hi v ->
        (lo, hi, v) :: acc)
  in
  Alcotest.check ranges_t "gap skipped"
    [ (20, 25, "b"); (5, 10, "a") ]
    pieces

let test_length_where () =
  let m = of_sets [ (0, 10, "a"); (20, 25, "b") ] in
  Alcotest.(check int) "selective length" 5
    (Interval_map.length_where m ~f:(fun v -> v = "b"))

let test_custom_equal () =
  (* equality mod 10: 1 and 11 coalesce *)
  let m =
    of_sets ~equal:(fun a b -> a mod 10 = b mod 10) [ (0, 5, 1); (5, 9, 11) ]
  in
  Alcotest.(check int) "coalesced under custom equal" 1
    (Interval_map.cardinal m)

(* --- one case per splice shape --- *)

let test_splice_growth () =
  (* 200 disjoint intervals, inserted out of order, outgrow the initial
     arrays several times; every one must survive each regrowth *)
  let m = Interval_map.create () in
  let order = List.init 200 (fun i -> (i * 37) mod 200) in
  List.iter
    (fun i -> Interval_map.set m ~lo:(i * 10) ~hi:((i * 10) + 5) i)
    order;
  Alcotest.(check int) "all kept" 200 (Interval_map.cardinal m);
  Alcotest.(check bool) "invariants" true (Interval_map.check_invariants m);
  Alcotest.(check (list (triple int int int)))
    "sorted" (List.init 200 (fun i -> (i * 10, (i * 10) + 5, i)))
    (Interval_map.ranges m);
  Alcotest.(check (option int))
    "found after growth" (Some 123) (find_opt m 1232);
  (* float values go through the same value pool *)
  let f = Interval_map.create () in
  List.iter
    (fun i -> Interval_map.set f ~lo:(i * 2) ~hi:((i * 2) + 1) (float_of_int i))
    order;
  Alcotest.(check (option (float 0.))) "float value" (Some 42.) (find_opt f 84)

let test_splice_one_into_three () =
  (* a set inside one entry, between untouched neighbours: the entry
     becomes left stub, new interval, right stub and the tail shifts *)
  let m = of_sets [ (0, 5, "x"); (10, 40, "a"); (50, 60, "y") ] in
  Interval_map.set m ~lo:20 ~hi:25 "b";
  Alcotest.check ranges_t "split in place"
    [
      (0, 5, "x"); (10, 20, "a"); (20, 25, "b"); (25, 40, "a"); (50, 60, "y");
    ]
    (ranges m);
  Alcotest.(check bool) "invariants" true (Interval_map.check_invariants m)

let test_splice_merges_both_neighbours () =
  (* overwriting the middle entry with its neighbours' value leaves one
     entry where there were three *)
  let m =
    of_sets [ (0, 10, "a"); (10, 20, "b"); (20, 30, "a"); (40, 50, "c") ]
  in
  Interval_map.set m ~lo:10 ~hi:20 "a";
  Alcotest.check ranges_t "one entry" [ (0, 30, "a"); (40, 50, "c") ]
    (ranges m);
  (* and across a gap: the new interval fills it and joins both sides *)
  Interval_map.set m ~lo:30 ~hi:40 "a";
  Interval_map.set m ~lo:40 ~hi:50 "a";
  Alcotest.check ranges_t "gap filled" [ (0, 50, "a") ] (ranges m);
  Alcotest.(check bool) "invariants" true (Interval_map.check_invariants m)

let test_splice_clear_empties () =
  let m = of_sets [ (0, 10, "a"); (10, 20, "b"); (30, 40, "c") ] in
  Interval_map.clear m ~lo:(-5) ~hi:45;
  Alcotest.(check bool) "empty" true (Interval_map.cardinal m = 0);
  Alcotest.(check int) "no entries" 0 (Interval_map.cardinal m);
  Alcotest.(check bool) "invariants" true (Interval_map.check_invariants m);
  (* the emptied map takes new assignments *)
  Interval_map.set m ~lo:5 ~hi:6 "d";
  Alcotest.check ranges_t "reusable" [ (5, 6, "d") ] (ranges m)

(* Values that only the map references, tracked by a weak array; built
   in a function of their own so no stack slot keeps them alive. *)
let[@inline never] set_tracked m weak ~slot ~lo ~hi =
  let v = Bytes.make 16 (Char.chr (Char.code 'a' + slot)) in
  Weak.set weak slot (Some v);
  Interval_map.set m ~lo ~hi v

let test_splice_releases_overwritten () =
  let m = Interval_map.create () in
  let weak = Weak.create 4 in
  set_tracked m weak ~slot:0 ~lo:0 ~hi:10;
  set_tracked m weak ~slot:1 ~lo:10 ~hi:20;
  set_tracked m weak ~slot:2 ~lo:20 ~hi:30;
  set_tracked m weak ~slot:3 ~lo:40 ~hi:50;
  (* one set replaces three entries: the two vacated slots at the tail
     must not keep their old values alive *)
  Interval_map.set m ~lo:0 ~hi:30 (Bytes.make 16 'z');
  Gc.full_major ();
  List.iter
    (fun slot ->
      Alcotest.(check bool)
        (Printf.sprintf "value %d released" slot)
        false (Weak.check weak slot))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "live value kept" true (Weak.check weak 3);
  Alcotest.(check int) "two entries" 2 (Interval_map.cardinal m)

(* --- model-based testing over domain [0, 64) --- *)

let domain = 64

type op = Set of int * int * int | Clear of int * int

let op_gen =
  QCheck.Gen.(
    let bound = int_range 0 domain in
    let range = pair bound bound in
    frequency
      [
        ( 4,
          map2
            (fun (a, b) v -> Set (min a b, max a b, v))
            range (int_range 0 3) );
        (1, map (fun (a, b) -> Clear (min a b, max a b)) range);
      ])

let op_print = function
  | Set (lo, hi, v) -> Printf.sprintf "Set(%d,%d,%d)" lo hi v
  | Clear (lo, hi) -> Printf.sprintf "Clear(%d,%d)" lo hi

(* Rounds that empty the map and refill it: a whole-domain clear, [k]
   short disjoint intervals of alternating value (k in 0, 1, 2, 9), a
   clear that cuts the map back to its first [j] of them, then a few
   random ops.  The map's size crosses 0, 1, 2 and 9 in both directions,
   where a small map's storage is made, grown, shrunk and dropped. *)
let refill_gen =
  QCheck.Gen.(
    let sizes = oneofl [ 0; 1; 2; 9 ] in
    let round =
      map3
        (fun k j extra ->
          (Clear (0, domain)
          :: List.init k (fun i -> Set (i * 7, (i * 7) + 3, i land 1)))
          @ (Clear (min j k * 7, domain) :: extra))
        sizes sizes
        (list_size (int_range 0 4) op_gen)
    in
    map List.concat (list_size (int_range 1 6) round))

let ops_arb =
  QCheck.(
    make
      ~print:(fun l -> String.concat ";" (List.map op_print l))
      Gen.(
        frequency
          [ (3, list_size (int_range 0 40) op_gen); (1, refill_gen) ]))

let op_range = function Set (lo, hi, _) | Clear (lo, hi) -> (lo, hi)

let apply_model model = function
  | Set (lo, hi, v) ->
      for i = lo to hi - 1 do
        model.(i) <- Some v
      done
  | Clear (lo, hi) ->
      for i = lo to hi - 1 do
        model.(i) <- None
      done

let apply_map m = function
  | Set (lo, hi, v) -> Interval_map.set m ~lo ~hi v
  | Clear (lo, hi) -> Interval_map.clear m ~lo ~hi

let model_at model i = if i < domain then model.(i) else None

(* The model's maximal equal-valued runs, coalesced as the map must be. *)
let model_runs model =
  let runs = ref [] and i = ref 0 in
  while !i < domain do
    match model.(!i) with
    | None -> incr i
    | Some v ->
        let lo = !i in
        while !i < domain && model.(!i) = Some v do
          incr i
        done;
        runs := (lo, !i, v) :: !runs
  done;
  List.rev !runs

(* fold_pieces over [lo, hi) against the model: the pieces tile the range
   in order, every point of a piece carries exactly the model's value (so
   [Some v] pieces agree with it and [None] pieces are exactly its
   unassigned points), and no two gaps abut. *)
let pieces_match_model model m ~lo ~hi =
  let rec tiles pos prev_gap = function
    | [] -> pos = hi
    | (a, b, v) :: rest ->
        let points_ok = ref true in
        for i = a to b - 1 do
          if model.(i) <> v then points_ok := false
        done;
        a = pos && a < b && !points_ok
        && not (prev_gap && v = None)
        && tiles b (v = None) rest
  in
  let pieces =
    Interval_map.fold_pieces m ~lo ~hi ~init:[] ~f:(fun acc a b v ->
        (a, b, v) :: acc)
  in
  if lo >= hi then pieces = [] else tiles lo false (List.rev pieces)

(* fold_range over [lo, hi) is exactly the model's runs clipped to it. *)
let fold_range_matches_model runs m ~lo ~hi =
  let expected =
    List.filter_map
      (fun (a, b, v) ->
        let a = max a lo and b = min b hi in
        if a < b then Some (a, b, v) else None)
      runs
  in
  let got =
    Interval_map.fold_range m ~lo ~hi ~init:[] ~f:(fun acc a b v ->
        (a, b, v) :: acc)
    |> List.rev
  in
  got = expected

(* Every query of the map against the model, at every point and over the
   whole domain plus the given range. *)
let agrees_with_model model m ~lo ~hi =
  let runs = model_runs model in
  let ok = ref true in
  for i = 0 to domain do
    if find_opt m i <> model_at model i then ok := false
  done;
  !ok
  && Interval_map.cardinal m = List.length runs
  && Interval_map.check_invariants m
  && List.for_all
       (fun (lo, hi) ->
         pieces_match_model model m ~lo ~hi
         && fold_range_matches_model runs m ~lo ~hi)
       [ (0, domain); (lo, hi) ]

let run_ops ops =
  let model = Array.make domain None in
  let m = Interval_map.create () in
  List.iter
    (fun op ->
      apply_model model op;
      apply_map m op)
    ops;
  (model, m)

let prop_matches_model =
  QCheck.Test.make ~count:500 ~long_factor:50
    ~name:"interval map point queries match model" ops_arb (fun ops ->
      (* every query after every update, over the whole domain and over
         each op's own range, whose bounds mostly fall inside later
         intervals *)
      let model = Array.make domain None in
      let m = Interval_map.create () in
      List.for_all
        (fun op ->
          apply_model model op;
          apply_map m op;
          let lo, hi = op_range op in
          agrees_with_model model m ~lo ~hi)
        ops
      && List.for_all
           (fun op ->
             let lo, hi = op_range op in
             pieces_match_model model m ~lo ~hi)
           ops)

let prop_invariants_hold =
  QCheck.Test.make ~count:500 ~long_factor:50
    ~name:"interval map invariants after random ops" ops_arb (fun ops ->
      let _, m = run_ops ops in
      Interval_map.check_invariants m)

let prop_total_length_matches =
  QCheck.Test.make ~count:500 ~long_factor:50
    ~name:"total_length matches model population" ops_arb (fun ops ->
      let model, m = run_ops ops in
      let populated =
        Array.fold_left
          (fun acc v -> if v = None then acc else acc + 1)
          0 model
      in
      Interval_map.total_length m = populated)

let suite =
  ( "interval_map",
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "set and find" `Quick test_set_and_find;
      Alcotest.test_case "overwrite splits" `Quick test_overwrite_splits;
      Alcotest.test_case "coalesce adjacent equal" `Quick
        test_coalesce_adjacent_equal;
      Alcotest.test_case "no coalesce different" `Quick
        test_no_coalesce_different;
      Alcotest.test_case "middle overwrite rejoins" `Quick
        test_middle_overwrite_rejoins;
      Alcotest.test_case "clear" `Quick test_clear;
      Alcotest.test_case "carve overhang left" `Quick
        test_carve_overhang_left_only;
      Alcotest.test_case "carve overhang right" `Quick
        test_carve_overhang_right_only;
      Alcotest.test_case "carve exact match" `Quick test_carve_exact_match;
      Alcotest.test_case "carve leaves abutting neighbours" `Quick
        test_carve_boundary_abutting_untouched;
      Alcotest.test_case "carve spans many" `Quick test_carve_spanning_many;
      Alcotest.test_case "carve empty range" `Quick test_carve_empty_range_noop;
      Alcotest.test_case "carve in gap" `Quick test_carve_in_gap_noop;
      Alcotest.test_case "empty range noop" `Quick test_empty_range_noop;
      Alcotest.test_case "fold_range clips" `Quick test_fold_range_clips;
      Alcotest.test_case "fold_range spans gaps" `Quick
        test_fold_range_spans_gaps;
      Alcotest.test_case "length_where" `Quick test_length_where;
      Alcotest.test_case "custom equal" `Quick test_custom_equal;
      Alcotest.test_case "splice growth past capacity" `Quick
        test_splice_growth;
      Alcotest.test_case "splice one entry into three" `Quick
        test_splice_one_into_three;
      Alcotest.test_case "splice merges both neighbours" `Quick
        test_splice_merges_both_neighbours;
      Alcotest.test_case "splice clear empties the map" `Quick
        test_splice_clear_empties;
      Alcotest.test_case "splice releases overwritten values" `Quick
        test_splice_releases_overwritten;
      QCheck_alcotest.to_alcotest prop_matches_model;
      QCheck_alcotest.to_alcotest prop_invariants_hold;
      QCheck_alcotest.to_alcotest prop_total_length_matches;
    ] )
