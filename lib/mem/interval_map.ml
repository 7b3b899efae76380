module Int_map = Map.Make (Int)

type 'a t = {
  equal : 'a -> 'a -> bool;
  map : (int * 'a) Int_map.t; (* lo -> (hi, v), half-open, disjoint *)
}

let empty ?(equal = ( = )) () = { equal; map = Int_map.empty }
let is_empty t = Int_map.is_empty t.map

(* Remove every piece of assignment within [lo, hi), preserving the parts
   of boundary intervals that stick out on either side. *)
let carve map ~lo ~hi =
  if lo >= hi then map
  else begin
    (* A predecessor interval may overhang into [lo, hi). *)
    let map =
      match Int_map.find_last_opt (fun k -> k < lo) map with
      | Some (k, (h, v)) when h > lo ->
          let map = Int_map.add k (lo, v) map in
          if h > hi then Int_map.add hi (h, v) map else map
      | _ -> map
    in
    (* Intervals starting inside [lo, hi). *)
    let rec chop map =
      match Int_map.find_first_opt (fun k -> k >= lo) map with
      | Some (k, (h, v)) when k < hi ->
          let map = Int_map.remove k map in
          let map = if h > hi then Int_map.add hi (h, v) map else map in
          chop map
      | _ -> map
    in
    chop map
  end

let clear t ~lo ~hi = { t with map = carve t.map ~lo ~hi }

let set t ~lo ~hi v =
  if lo >= hi then t
  else begin
    let map = carve t.map ~lo ~hi in
    (* Coalesce with an abutting equal-valued left neighbour... *)
    let lo, map =
      match Int_map.find_last_opt (fun k -> k < lo) map with
      | Some (k, (h, v')) when h = lo && t.equal v v' ->
          (k, Int_map.remove k map)
      | _ -> (lo, map)
    in
    (* ... and right neighbour. *)
    let hi, map =
      match Int_map.find_first_opt (fun k -> k >= hi) map with
      | Some (k, (h, v')) when k = hi && t.equal v v' ->
          (h, Int_map.remove k map)
      | _ -> (hi, map)
    in
    { t with map = Int_map.add lo (hi, v) map }
  end

let find_interval t x =
  match Int_map.find_last_opt (fun k -> k <= x) t.map with
  | Some (k, (h, v)) when h > x -> Some (k, h, v)
  | _ -> None

let find t x =
  match find_interval t x with Some (_, _, v) -> Some v | None -> None

let ranges t =
  Int_map.fold (fun lo (hi, v) acc -> (lo, hi, v) :: acc) t.map []
  |> List.rev

let cardinal t = Int_map.cardinal t.map

let fold t ~init ~f =
  Int_map.fold (fun lo (hi, v) acc -> f acc lo hi v) t.map init

let fold_range t ~lo ~hi ~init ~f =
  if lo >= hi then init
  else begin
    (* Start from the interval containing [lo], if any, else the first one
       after it. *)
    let start =
      match Int_map.find_last_opt (fun k -> k <= lo) t.map with
      | Some (k, (h, _)) when h > lo -> k
      | _ -> lo
    in
    let rec loop acc key =
      match Int_map.find_first_opt (fun k -> k >= key) t.map with
      | Some (k, (h, v)) when k < hi ->
          let acc = f acc (max k lo) (min h hi) v in
          loop acc h
      | _ -> acc
    in
    loop init start
  end

let iter_range t ~lo ~hi ~f =
  fold_range t ~lo ~hi ~init:() ~f:(fun () a b v -> f a b v)

let fold_pieces t ~lo ~hi ~init ~f =
  if lo >= hi then init
  else begin
    let pos, acc =
      fold_range t ~lo ~hi ~init:(lo, init) ~f:(fun (pos, acc) a b v ->
          let acc = if a > pos then f acc pos a None else acc in
          (b, f acc a b (Some v)))
    in
    if pos < hi then f acc pos hi None else acc
  end

let total_length t = fold t ~init:0 ~f:(fun acc lo hi _ -> acc + hi - lo)

let length_where t ~f =
  fold t ~init:0 ~f:(fun acc lo hi v -> if f v then acc + hi - lo else acc)

let next_unassigned t x =
  let rec loop x =
    match find_interval t x with
    | None -> Some x
    | Some (_, hi, _) -> if hi > x then loop hi else None
  in
  loop x

let check_invariants t =
  let rec check prev = function
    | [] -> true
    | (lo, hi, v) :: rest ->
        lo < hi
        && (match prev with
           | None -> true
           | Some (_, prev_hi, prev_v) ->
               prev_hi <= lo && not (prev_hi = lo && t.equal prev_v v))
        && check (Some (lo, hi, v)) rest
  in
  check None (ranges t)
