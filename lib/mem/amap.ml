type t = Accessibility.t Interval_map.t

let of_ranges ranges =
  let t = Interval_map.create ~equal:Accessibility.equal () in
  List.iter
    (fun (lo, hi, cls) ->
      match (cls : Accessibility.t) with
      | Bad_mem -> () (* gaps already mean Bad_mem *)
      | _ ->
          (match Interval_map.fold_range t ~lo ~hi ~init:None
                   ~f:(fun _ a b _ -> Some (a, b)) with
          | Some _ -> invalid_arg "Amap.of_ranges: overlapping ranges"
          | None -> ());
          Interval_map.set t ~lo ~hi cls)
    ranges;
  t

let classify t addr =
  match Interval_map.find t addr with
  | cls -> cls
  | exception Not_found -> Accessibility.Bad_mem

let ranges t = Interval_map.ranges t

let ranges_of t cls =
  Interval_map.fold t ~init:[] ~f:(fun acc lo hi c ->
      if Accessibility.equal c cls then (lo, hi) :: acc else acc)
  |> List.rev

let entry_count t = Interval_map.cardinal t

let bytes_of t cls =
  Interval_map.length_where t ~f:(fun c -> Accessibility.equal c cls)

let total_validated t = Interval_map.total_length t

let header_size = 16
let entry_size = 12

let wire_size t = header_size + (entry_size * entry_count t)

let pp ppf t =
  Format.fprintf ppf "@[<v>AMap (%d entries):@," (entry_count t);
  List.iter
    (fun (lo, hi, cls) ->
      Format.fprintf ppf "  %a %a (%s)@," Vaddr.pp (Vaddr.range lo hi)
        Accessibility.pp cls
        (Accent_util.Bytesize.to_string (hi - lo)))
    (ranges t);
  Format.fprintf ppf "@]"
