(* Stats, byte formatting, charts. *)
open Accent_util

(* --- Stats --- *)

let feed xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  s

let close = Alcotest.(check (float 1e-9))

let test_stats_basic () =
  let s = feed [ 1.; 2.; 3.; 4. ] in
  close "mean" 2.5 (Stats.mean s);
  close "total" 10. (Stats.total s);
  Alcotest.(check int) "count" 4 (Stats.count s);
  close "min" 1. (Stats.min_value s);
  close "max" 4. (Stats.max_value s);
  close "variance" (5. /. 3.) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  close "mean of empty" 0. (Stats.mean s);
  close "variance of empty" 0. (Stats.variance s);
  close "percentile of empty" 0. (Stats.percentile s 50.)

let test_stats_percentile () =
  let s = feed [ 10.; 20.; 30.; 40.; 50. ] in
  close "p0" 10. (Stats.percentile s 0.);
  close "p50" 30. (Stats.percentile s 50.);
  close "p100" 50. (Stats.percentile s 100.);
  close "p25 interpolates" 20. (Stats.percentile s 25.)

let test_stats_merge () =
  let a = feed [ 1.; 2. ] and b = feed [ 3.; 4. ] in
  let m = Stats.merge a b in
  Alcotest.(check int) "merged count" 4 (Stats.count m);
  close "merged mean" 2.5 (Stats.mean m)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean within min..max"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = feed xs in
      Stats.mean s >= Stats.min_value s -. 1e-9
      && Stats.mean s <= Stats.max_value s +. 1e-9)

let prop_welford_matches_naive =
  QCheck.Test.make ~name:"Welford variance matches two-pass"
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = feed xs in
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
        /. (n -. 1.)
      in
      Float.abs (Stats.variance s -. var) < 1e-6 *. (1. +. var))

(* The two sample-store modes may never disagree on moments: the
   unboxed moment accumulator is independent of whether samples are
   retained or collapsed into the sketch, so equality here is exact —
   bit-for-bit, not within a tolerance. *)
let prop_moments_mode_independent =
  QCheck.Test.make ~name:"moments identical in exact and sketch modes"
    QCheck.(list_of_size Gen.(int_range 0 60) (float_range (-1000.) 1000.))
    (fun xs ->
      let exact = Stats.create () in
      let sketch = Stats.create ~exact_capacity:0 () in
      List.iter
        (fun x ->
          Stats.add exact x;
          Stats.add sketch x)
        xs;
      Stats.count exact = Stats.count sketch
      && Stats.mean exact = Stats.mean sketch
      && Stats.variance exact = Stats.variance sketch
      && Stats.min_value exact = Stats.min_value sketch
      && Stats.max_value exact = Stats.max_value sketch)

(* A moments-only accumulator runs the same moment updates with no
   sample store behind them: its six moments equal an exact
   accumulator's bit for bit, across seven decades of magnitude. *)
let prop_moments_only_is_exact =
  QCheck.Test.make ~name:"moments-only = exact Stats, bit for bit"
    QCheck.(
      list_of_size
        Gen.(int_range 0 200)
        (map
           (fun (neg, e) -> (if neg then -1. else 1.) *. (10. ** e))
           (pair bool (float_range (-3.) 4.))))
    (fun xs ->
      let exact = Stats.create () and only = Stats.moments_only () in
      List.iter
        (fun x ->
          Stats.add exact x;
          Stats.add only x)
        xs;
      let bits s =
        List.map Int64.bits_of_float
          [
            Stats.total s; Stats.mean s; Stats.variance s; Stats.min_value s;
            Stats.max_value s;
          ]
      in
      Stats.count only = Stats.count exact && bits only = bits exact)

let test_moments_only_keeps_no_samples () =
  let s = Stats.moments_only () in
  List.iter (Stats.add s) [ 1.; 2.; 3. ];
  Alcotest.(check bool) "not retained" false (Stats.retained_exactly s);
  Alcotest.check_raises "no percentile"
    (Invalid_argument
       "Stats.percentile: a moments-only accumulator keeps no samples")
    (fun () -> ignore (Stats.percentile s 50.));
  let m = Stats.merge s (feed [ 4.; 5. ]) in
  close "merged mean" 3. (Stats.mean m);
  Alcotest.(check int) "merged count" 5 (Stats.count m);
  Alcotest.check_raises "merged keeps no samples"
    (Invalid_argument
       "Stats.percentile: a moments-only accumulator keeps no samples")
    (fun () -> ignore (Stats.percentile m 50.));
  Alcotest.(check int) "empty merge" 0
    (Stats.count (Stats.merge (Stats.moments_only ()) (Stats.moments_only ())))

let percentile_points = [ 0.; 10.; 25.; 50.; 75.; 90.; 99.; 100. ]

(* Below the retention capacity the accumulator IS the historical
   retain-everything implementation, so it must match the list oracle
   exactly at every probe point. *)
let prop_percentile_exact_below_capacity =
  QCheck.Test.make ~name:"percentile equals list oracle while exact"
    QCheck.(list_of_size Gen.(int_range 1 60) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = feed xs in
      Stats.retained_exactly s
      && List.for_all
           (fun p -> Stats.percentile s p = Stats.percentile_of xs p)
           percentile_points)

(* Past the capacity the sketch answers within its documented relative
   error.  Positive data keeps the relative bound meaningful (the
   interpolation between adjacent order statistics preserves it only
   for same-signed samples). *)
let prop_percentile_sketch_within_alpha =
  QCheck.Test.make ~name:"sketch percentile within documented tolerance"
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 0.001 1e6))
    (fun xs ->
      let s = Stats.create ~exact_capacity:0 () in
      List.iter (Stats.add s) xs;
      (not (Stats.retained_exactly s))
      && List.for_all
           (fun p ->
             let oracle = Stats.percentile_of xs p in
             Float.abs (Stats.percentile s p -. oracle)
             <= (Stats.sketch_alpha *. Float.abs oracle) +. 1e-9)
           percentile_points)

(* --- Bytesize --- *)

let test_bytesize_format () =
  Alcotest.(check string) "bytes" "512 B" (Bytesize.to_string 512);
  Alcotest.(check string) "kb" "139.0 KB" (Bytesize.to_string 142336);
  Alcotest.(check string) "mb" "2.1 MB" (Bytesize.to_string 2203136);
  Alcotest.(check string) "gb" "3.94 GB" (Bytesize.to_string 4228129280)

let test_bytesize_commas () =
  Alcotest.(check string) "small" "42" (Bytesize.with_commas 42);
  Alcotest.(check string) "thousands" "142,336" (Bytesize.with_commas 142336);
  Alcotest.(check string) "billions" "4,228,129,280"
    (Bytesize.with_commas 4228129280);
  Alcotest.(check string) "negative" "-1,234" (Bytesize.with_commas (-1234))

let test_bytesize_units () =
  Alcotest.(check int) "kb" 1024 (Bytesize.of_kb 1);
  Alcotest.(check int) "mb" (1024 * 1024) (Bytesize.of_mb 1);
  Alcotest.(check int) "gb" (1024 * 1024 * 1024) (Bytesize.of_gb 1)

(* --- Ascii_chart --- *)

let test_chart_hbars () =
  let out =
    Ascii_chart.hbar_groups ~title:"chart"
      [ ("g", [ ("a", 10.); ("b", 5.) ]) ]
  in
  Alcotest.(check bool) "mentions labels" true
    (String.length out > 0
    && Test_helpers.contains out "a"
    && Test_helpers.contains out "#")

and test_chart_negative () =
  let out =
    Ascii_chart.hbar_groups ~title:"c" [ ("g", [ ("a", -10.); ("b", 10.) ]) ]
  in
  Alcotest.(check bool) "draws negative bars" true
    (Test_helpers.contains out "<" && Test_helpers.contains out ">")

let test_chart_empty_timeline () =
  let out =
    Ascii_chart.stacked_timeline ~title:"t" ~y_label:"y" ~x_label:"x" [||] [||]
  in
  Alcotest.(check bool) "handles empty" true
    (Test_helpers.contains out "empty")

let test_chart_stacked () =
  let lower = [| (0., 5.); (1., 5.) |] and upper = [| (0., 2.); (1., 0.) |] in
  let out =
    Ascii_chart.stacked_timeline ~title:"s" ~y_label:"y" ~x_label:"x" lower
      upper
  in
  Alcotest.(check bool) "has both layers" true
    (Test_helpers.contains out "#" && Test_helpers.contains out "o")

(* --- Int_tbl --- *)

module Int_map = Map.Make (Int)

type tbl_op =
  | Replace of int * int
  | Add of int * int
  | Remove of int
  | Find of int
  | Find_opt of int
  | Mem of int
  | Length
  | Iter
  | Fold
  | Reset

let show_tbl_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Find_opt k -> Printf.sprintf "find_opt %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Length -> "length"
  | Iter -> "iter"
  | Fold -> "fold"
  | Reset -> "reset"

(* Small keys so probes collide, negatives, and multiples of every
   capacity a table of up to 256 slots passes through (so homes bunch
   near slot 0 and runs wrap past the array's end). *)
let gen_tbl_key =
  QCheck.Gen.(
    oneof
      [
        int_range (-40) 40;
        map2 ( * ) (oneofl [ 8; 16; 32; 64; 128; 256 ]) (int_range (-12) 12);
      ])

(* Inserts outweigh removes, so a sequence's live set climbs past the
   48 keys of the fourth doubling (8 -> 16 -> 32 -> 64 -> 128 slots). *)
let gen_tbl_op =
  QCheck.Gen.(
    frequency
      [
        (12, map2 (fun k v -> Replace (k, v)) gen_tbl_key small_nat);
        (6, map2 (fun k v -> Add (k, v)) gen_tbl_key small_nat);
        (6, map (fun k -> Remove k) gen_tbl_key);
        (3, map (fun k -> Find k) gen_tbl_key);
        (2, map (fun k -> Find_opt k) gen_tbl_key);
        (2, map (fun k -> Mem k) gen_tbl_key);
        (1, return Length);
        (1, return Iter);
        (1, return Fold);
        (1, frequency [ (1, return Reset); (9, return Length) ]);
      ])

(* Every binding, from [iter] and from [fold]: each live key must come
   out exactly once, so the sorted lists equal the model's bindings. *)
let tbl_bindings t =
  let from_iter = ref [] in
  Int_tbl.iter (fun k v -> from_iter := (k, v) :: !from_iter) t;
  let from_fold = Int_tbl.fold (fun k v acc -> (k, v) :: acc) t [] in
  (List.sort compare !from_iter, List.sort compare from_fold)

let prop_int_tbl_model =
  QCheck.Test.make ~count:300 ~name:"Int_tbl matches a Map model"
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_tbl_op ops))
        Gen.(list_size (int_range 0 400) gen_tbl_op))
    (fun ops ->
      let t = Int_tbl.create 8 in
      let agrees model = function
        | Replace (k, v) ->
            Int_tbl.replace t k v;
            (true, Int_map.add k v model)
        | Add (k, v) ->
            Int_tbl.add t k v;
            (true, Int_map.add k v model)
        | Remove k ->
            Int_tbl.remove t k;
            (true, Int_map.remove k model)
        | Find k ->
            let got = try Some (Int_tbl.find t k) with Not_found -> None in
            (got = Int_map.find_opt k model, model)
        | Find_opt k -> (Int_tbl.find_opt t k = Int_map.find_opt k model, model)
        | Mem k -> (Int_tbl.mem t k = Int_map.mem k model, model)
        | Length -> (Int_tbl.length t = Int_map.cardinal model, model)
        | Iter | Fold ->
            let from_iter, from_fold = tbl_bindings t in
            let want = Int_map.bindings model in
            (from_iter = want && from_fold = want, model)
        | Reset ->
            Int_tbl.reset t;
            (true, Int_map.empty)
      in
      let ok, model =
        List.fold_left
          (fun (ok, model) op ->
            let agreed, model = agrees model op in
            (ok && agreed, model))
          (true, Int_map.empty) ops
      in
      let from_iter, from_fold = tbl_bindings t in
      ok
      && Int_tbl.length t = Int_map.cardinal model
      && from_iter = Int_map.bindings model
      && from_fold = Int_map.bindings model)

(* The model property's sequences reach the fourth doubling only
   sometimes; this walks one table up through 8 doublings and back down,
   removing in an order unrelated to insertion, with every key checked
   at every step. *)
let test_int_tbl_growth () =
  let t = Int_tbl.create 8 in
  let keys = Array.init 1_500 (fun i -> ((i * 7919) mod 1_500 - 700) * 64) in
  let check_all live =
    Alcotest.(check int) "length" (Hashtbl.length live) (Int_tbl.length t);
    Array.iter
      (fun k ->
        Alcotest.(check (option int))
          (Printf.sprintf "key %d" k)
          (Hashtbl.find_opt live k) (Int_tbl.find_opt t k))
      keys
  in
  let live = Hashtbl.create 16 in
  Array.iteri
    (fun i k ->
      Int_tbl.replace t k i;
      Hashtbl.replace live k i;
      if i mod 97 = 0 then check_all live)
    keys;
  check_all live;
  Array.iteri
    (fun i _ ->
      let k = keys.(i * 1_009 mod 1_500) in
      Int_tbl.remove t k;
      Hashtbl.remove live k;
      if i mod 89 = 0 then check_all live)
    keys;
  check_all live;
  Alcotest.(check int) "emptied" 0 (Int_tbl.length t)

let test_int_tbl_min_int () =
  let t = Int_tbl.create 8 in
  Int_tbl.replace t 0 1;
  Alcotest.check_raises "replace min_int"
    (Invalid_argument "Int_tbl: min_int is not a key") (fun () ->
      Int_tbl.replace t min_int 2);
  Alcotest.check_raises "add min_int"
    (Invalid_argument "Int_tbl: min_int is not a key") (fun () ->
      Int_tbl.add t min_int 2);
  Alcotest.check_raises "find min_int" Not_found (fun () ->
      ignore (Int_tbl.find t min_int));
  Alcotest.(check bool) "mem min_int" false (Int_tbl.mem t min_int);
  Alcotest.(check (option int)) "find_opt min_int" None
    (Int_tbl.find_opt t min_int);
  Int_tbl.remove t min_int;
  Alcotest.(check int) "one key left" 1 (Int_tbl.length t);
  (* an unfilled table answers every lookup without allocating slots *)
  let fresh = Int_tbl.create 1_000_000 in
  Alcotest.(check bool) "fresh mem" false (Int_tbl.mem fresh 3);
  Int_tbl.remove fresh 3;
  Alcotest.(check int) "fresh length" 0 (Int_tbl.length fresh)

let suite =
  ( "util",
    [
      Alcotest.test_case "stats basics" `Quick test_stats_basic;
      Alcotest.test_case "stats empty" `Quick test_stats_empty;
      Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
      Alcotest.test_case "stats merge" `Quick test_stats_merge;
      QCheck_alcotest.to_alcotest prop_mean_bounded;
      QCheck_alcotest.to_alcotest prop_welford_matches_naive;
      QCheck_alcotest.to_alcotest prop_moments_mode_independent;
      QCheck_alcotest.to_alcotest prop_moments_only_is_exact;
      Alcotest.test_case "moments only keeps no samples" `Quick
        test_moments_only_keeps_no_samples;
      QCheck_alcotest.to_alcotest prop_percentile_exact_below_capacity;
      QCheck_alcotest.to_alcotest prop_percentile_sketch_within_alpha;
      Alcotest.test_case "bytesize format" `Quick test_bytesize_format;
      Alcotest.test_case "bytesize commas" `Quick test_bytesize_commas;
      Alcotest.test_case "bytesize units" `Quick test_bytesize_units;
      Alcotest.test_case "chart hbars" `Quick test_chart_hbars;
      Alcotest.test_case "chart negative" `Quick test_chart_negative;
      Alcotest.test_case "chart empty" `Quick test_chart_empty_timeline;
      Alcotest.test_case "chart stacked" `Quick test_chart_stacked;
      QCheck_alcotest.to_alcotest prop_int_tbl_model;
      Alcotest.test_case "int_tbl growth and shrink" `Quick
        test_int_tbl_growth;
      Alcotest.test_case "int_tbl min_int" `Quick test_int_tbl_min_int;
    ] )
