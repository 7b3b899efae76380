(* Interval map: unit cases for splitting/coalescing plus a model-based
   qcheck suite comparing against a naive per-point array over a small
   domain. *)
open Accent_mem

let ranges_t = Alcotest.(list (triple int int string))
let ranges m = Interval_map.ranges m

let test_empty () =
  let m = Interval_map.empty () in
  Alcotest.(check bool) "empty" true (Interval_map.is_empty m);
  Alcotest.(check (option string)) "find" None (Interval_map.find m 5);
  Alcotest.(check int) "length" 0 (Interval_map.total_length m)

let test_set_and_find () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:10 ~hi:20 "a" in
  Alcotest.(check (option string)) "inside" (Some "a") (Interval_map.find m 15);
  Alcotest.(check (option string)) "lo inclusive" (Some "a")
    (Interval_map.find m 10);
  Alcotest.(check (option string)) "hi exclusive" None (Interval_map.find m 20);
  Alcotest.(check (option string)) "below" None (Interval_map.find m 9)

let test_overwrite_splits () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:30 "a" in
  let m = Interval_map.set m ~lo:10 ~hi:20 "b" in
  Alcotest.check ranges_t "split into three"
    [ (0, 10, "a"); (10, 20, "b"); (20, 30, "a") ]
    (ranges m)

let test_coalesce_adjacent_equal () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:10 "a" in
  let m = Interval_map.set m ~lo:10 ~hi:20 "a" in
  Alcotest.check ranges_t "coalesced" [ (0, 20, "a") ] (ranges m);
  Alcotest.(check int) "one interval" 1 (Interval_map.cardinal m)

let test_no_coalesce_different () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:10 "a" in
  let m = Interval_map.set m ~lo:10 ~hi:20 "b" in
  Alcotest.(check int) "two intervals" 2 (Interval_map.cardinal m)

let test_middle_overwrite_rejoins () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:30 "a" in
  let m = Interval_map.set m ~lo:10 ~hi:20 "b" in
  let m = Interval_map.set m ~lo:10 ~hi:20 "a" in
  Alcotest.check ranges_t "rejoined" [ (0, 30, "a") ] (ranges m)

let test_clear () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:30 "a" in
  let m = Interval_map.clear m ~lo:10 ~hi:20 in
  Alcotest.check ranges_t "hole" [ (0, 10, "a"); (20, 30, "a") ] (ranges m);
  Alcotest.(check int) "length" 20 (Interval_map.total_length m)

(* carve (via clear) boundary-overhang edge cases: an interval may stick
   out of the cleared range on the left, the right, both sides, or
   neither. *)

let test_carve_overhang_left_only () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:20 "a" in
  let m = Interval_map.clear m ~lo:10 ~hi:30 in
  Alcotest.check ranges_t "left stub survives" [ (0, 10, "a") ] (ranges m);
  Alcotest.(check bool) "invariants" true (Interval_map.check_invariants m)

let test_carve_overhang_right_only () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:10 ~hi:30 "a" in
  let m = Interval_map.clear m ~lo:0 ~hi:20 in
  Alcotest.check ranges_t "right stub survives" [ (20, 30, "a") ] (ranges m);
  Alcotest.(check bool) "invariants" true (Interval_map.check_invariants m)

let test_carve_exact_match () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:10 ~hi:20 "a" in
  let m = Interval_map.clear m ~lo:10 ~hi:20 in
  Alcotest.(check bool) "fully removed" true (Interval_map.is_empty m)

let test_carve_boundary_abutting_untouched () =
  (* neighbours that merely abut the cleared range must not be split *)
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:10 "a" in
  let m = Interval_map.set m ~lo:10 ~hi:20 "b" in
  let m = Interval_map.set m ~lo:20 ~hi:30 "c" in
  let m = Interval_map.clear m ~lo:10 ~hi:20 in
  Alcotest.check ranges_t "neighbours intact"
    [ (0, 10, "a"); (20, 30, "c") ]
    (ranges m);
  Alcotest.(check int) "two intervals" 2 (Interval_map.cardinal m)

let test_carve_spanning_many () =
  (* the cleared range swallows whole intervals and clips the two ends *)
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:10 "a" in
  let m = Interval_map.set m ~lo:15 ~hi:25 "b" in
  let m = Interval_map.set m ~lo:30 ~hi:40 "c" in
  let m = Interval_map.clear m ~lo:5 ~hi:35 in
  Alcotest.check ranges_t "ends clipped, middle gone"
    [ (0, 5, "a"); (35, 40, "c") ]
    (ranges m);
  Alcotest.(check int) "length" 10 (Interval_map.total_length m);
  Alcotest.(check bool) "invariants" true (Interval_map.check_invariants m)

let test_carve_empty_range_noop () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:10 "a" in
  let m' = Interval_map.clear m ~lo:5 ~hi:5 in
  Alcotest.check ranges_t "untouched" [ (0, 10, "a") ] (ranges m')

let test_carve_in_gap_noop () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:10 "a" in
  let m = Interval_map.set m ~lo:20 ~hi:30 "b" in
  let m = Interval_map.clear m ~lo:12 ~hi:18 in
  Alcotest.check ranges_t "gap clear is a no-op"
    [ (0, 10, "a"); (20, 30, "b") ]
    (ranges m)

let test_empty_range_noop () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:5 ~hi:5 "a" in
  Alcotest.(check bool) "still empty" true (Interval_map.is_empty m)

let test_fold_range_clips () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:100 "a" in
  let pieces =
    Interval_map.fold_range m ~lo:30 ~hi:60 ~init:[] ~f:(fun acc lo hi v ->
        (lo, hi, v) :: acc)
  in
  Alcotest.check ranges_t "clipped" [ (30, 60, "a") ] pieces

let test_fold_range_spans_gaps () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:10 "a" in
  let m = Interval_map.set m ~lo:20 ~hi:30 "b" in
  let pieces =
    Interval_map.fold_range m ~lo:5 ~hi:25 ~init:[] ~f:(fun acc lo hi v ->
        (lo, hi, v) :: acc)
  in
  Alcotest.check ranges_t "gap skipped"
    [ (20, 25, "b"); (5, 10, "a") ]
    pieces

let test_find_interval () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:10 ~hi:20 "a" in
  Alcotest.(check (option (triple int int string)))
    "finds container" (Some (10, 20, "a"))
    (Interval_map.find_interval m 12);
  Alcotest.(check (option (triple int int string)))
    "none outside" None
    (Interval_map.find_interval m 25)

let test_length_where () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:10 "a" in
  let m = Interval_map.set m ~lo:20 ~hi:25 "b" in
  Alcotest.(check int) "selective length" 5
    (Interval_map.length_where m ~f:(fun v -> v = "b"))

let test_next_unassigned () =
  let m = Interval_map.set (Interval_map.empty ()) ~lo:0 ~hi:10 "a" in
  let m = Interval_map.set m ~lo:10 ~hi:20 "b" in
  Alcotest.(check (option int)) "skips assigned" (Some 20)
    (Interval_map.next_unassigned m 5);
  Alcotest.(check (option int)) "already free" (Some 42)
    (Interval_map.next_unassigned m 42)

let test_custom_equal () =
  (* equality mod 10: 1 and 11 coalesce *)
  let m = Interval_map.empty ~equal:(fun a b -> a mod 10 = b mod 10) () in
  let m = Interval_map.set m ~lo:0 ~hi:5 1 in
  let m = Interval_map.set m ~lo:5 ~hi:9 11 in
  Alcotest.(check int) "coalesced under custom equal" 1
    (Interval_map.cardinal m)

(* --- model-based testing over domain [0, 64) --- *)

type op = Set of int * int * int | Clear of int * int

let op_gen =
  QCheck.Gen.(
    let bound = int_range 0 64 in
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

let run_ops ops =
  let model = Array.make 64 None in
  let m =
    List.fold_left
      (fun m op ->
        apply_model model op;
        apply_map m op)
      (Interval_map.empty ()) ops
  in
  (model, m)

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

let prop_matches_model =
  QCheck.Test.make ~count:500 ~name:"interval map point queries match model"
    QCheck.(make ~print:(fun l -> String.concat ";" (List.map op_print l))
              Gen.(list_size (int_range 0 40) op_gen))
    (fun ops ->
      let model, m = run_ops ops in
      let ok = ref true in
      for i = 0 to 63 do
        if Interval_map.find m i <> model.(i) then ok := false
      done;
      (* the walk over the whole domain and over every op's own range,
         whose bounds mostly fall inside later intervals *)
      !ok
      && List.for_all
           (fun (lo, hi) -> pieces_match_model model m ~lo ~hi)
           ((0, 64)
           :: List.map
                (function Set (lo, hi, _) | Clear (lo, hi) -> (lo, hi))
                ops))

let prop_invariants_hold =
  QCheck.Test.make ~count:500 ~name:"interval map invariants after random ops"
    QCheck.(make ~print:(fun l -> String.concat ";" (List.map op_print l))
              Gen.(list_size (int_range 0 40) op_gen))
    (fun ops ->
      let _, m = run_ops ops in
      Interval_map.check_invariants m)

let prop_total_length_matches =
  QCheck.Test.make ~count:500 ~name:"total_length matches model population"
    QCheck.(make ~print:(fun l -> String.concat ";" (List.map op_print l))
              Gen.(list_size (int_range 0 40) op_gen))
    (fun ops ->
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
      Alcotest.test_case "find_interval" `Quick test_find_interval;
      Alcotest.test_case "length_where" `Quick test_length_where;
      Alcotest.test_case "next_unassigned" `Quick test_next_unassigned;
      Alcotest.test_case "custom equal" `Quick test_custom_equal;
      QCheck_alcotest.to_alcotest prop_matches_model;
      QCheck_alcotest.to_alcotest prop_invariants_hold;
      QCheck_alcotest.to_alcotest prop_total_length_matches;
    ] )
