type t =
  | Slice of { values : Page.value array; off : int; len : int }
  | Gen of { tag : int; first : Page.index; len : int }
  | Concat of { parts : t array; starts : int array; len : int }
      (* parts are never Concat themselves and never empty;
         starts.(i) is the run-relative index where parts.(i) begins *)

let empty = Slice { values = [||]; off = 0; len = 0 }
let length = function Slice { len; _ } | Gen { len; _ } | Concat { len; _ } -> len

let of_array values = Slice { values; off = 0; len = Array.length values }
let copy_of_array values = of_array (Array.copy values)
let of_list values = of_array (Array.of_list values)
let singleton value = Slice { values = [| value |]; off = 0; len = 1 }

let pattern ~tag ~first ~len =
  if len < 0 then invalid_arg "Page_run.pattern: negative length";
  Gen { tag; first; len }

(* Index of the part containing run-relative index [i]: the greatest [p]
   with [starts.(p) <= i]. *)
let part_of starts i =
  let lo = ref 0 and hi = ref (Array.length starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if starts.(mid) <= i then lo := mid else hi := mid - 1
  done;
  !lo

let get t i =
  if i < 0 || i >= length t then invalid_arg "Page_run.get: out of bounds";
  match t with
  | Slice { values; off; _ } -> values.(off + i)
  | Gen { tag; first; _ } -> Page.pattern_value ~tag (first + i)
  | Concat { parts; starts; _ } ->
      let p = part_of starts i in
      let rel = i - starts.(p) in
      (match parts.(p) with
      | Slice { values; off; _ } -> values.(off + rel)
      | Gen { tag; first; _ } -> Page.pattern_value ~tag (first + rel)
      | Concat _ -> assert false)

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Page_run.sub: out of bounds";
  if len = 0 then empty
  else if pos = 0 && len = length t then t
  else
    match t with
    | Slice { values; off; _ } -> Slice { values; off = off + pos; len }
    | Gen { tag; first; _ } -> Gen { tag; first = first + pos; len }
    | Concat { parts; starts; _ } ->
        let first_p = part_of starts pos
        and last_p = part_of starts (pos + len - 1) in
        if first_p = last_p then
          let part = parts.(first_p) in
          (match part with
          | Slice { values; off; _ } ->
              Slice { values; off = off + pos - starts.(first_p); len }
          | Gen { tag; first; _ } ->
              Gen { tag; first = first + pos - starts.(first_p); len }
          | Concat _ -> assert false)
        else begin
          let n = last_p - first_p + 1 in
          let out_parts = Array.make n empty in
          let out_starts = Array.make n 0 in
          let cursor = ref 0 in
          for p = first_p to last_p do
            let part = parts.(p) in
            let plen = length part in
            let from = if p = first_p then pos - starts.(p) else 0 in
            let upto =
              if p = last_p then pos + len - starts.(p) else plen
            in
            let piece =
              if from = 0 && upto = plen then part
              else
                match part with
                | Slice { values; off; _ } ->
                    Slice { values; off = off + from; len = upto - from }
                | Gen { tag; first; _ } ->
                    Gen { tag; first = first + from; len = upto - from }
                | Concat _ -> assert false
            in
            out_parts.(p - first_p) <- piece;
            out_starts.(p - first_p) <- !cursor;
            cursor := !cursor + (upto - from)
          done;
          Concat { parts = out_parts; starts = out_starts; len }
        end

(* Growable accumulator for building a concatenation part by part with
   no intermediate list: the gather loops of an image export push one
   part per overlay stretch, and at capture rates the filter/rev/cons
   churn of going through [concat] is measurable GC pressure. *)
type builder = {
  mutable bparts : t array;
  mutable bstarts : int array;
  mutable bn : int;
  mutable blen : int;
}

let builder () =
  { bparts = Array.make 8 empty; bstarts = Array.make 8 0; bn = 0; blen = 0 }

let rec builder_add b r =
  match r with
  | Concat { parts; _ } -> Array.iter (builder_add b) parts
  | (Slice _ | Gen _) when length r = 0 -> ()
  | Slice _ | Gen _ ->
      if b.bn = Array.length b.bparts then begin
        let parts = Array.make (2 * b.bn) empty in
        Array.blit b.bparts 0 parts 0 b.bn;
        b.bparts <- parts;
        let starts = Array.make (2 * b.bn) 0 in
        Array.blit b.bstarts 0 starts 0 b.bn;
        b.bstarts <- starts
      end;
      b.bparts.(b.bn) <- r;
      b.bstarts.(b.bn) <- b.blen;
      b.blen <- b.blen + length r;
      b.bn <- b.bn + 1

let builder_run b =
  if b.bn = 0 then empty
  else if b.bn = 1 then b.bparts.(0)
  else
    Concat
      {
        parts = Array.sub b.bparts 0 b.bn;
        starts = Array.sub b.bstarts 0 b.bn;
        len = b.blen;
      }

let concat runs =
  let runs = List.filter (fun r -> length r > 0) runs in
  match runs with
  | [] -> empty
  | [ r ] -> r
  | runs ->
      let n_parts =
        List.fold_left
          (fun acc r ->
            acc + match r with Concat { parts; _ } -> Array.length parts | _ -> 1)
          0 runs
      in
      let parts = Array.make n_parts empty in
      let starts = Array.make n_parts 0 in
      let fill = ref 0 and cursor = ref 0 in
      let push part =
        parts.(!fill) <- part;
        starts.(!fill) <- !cursor;
        cursor := !cursor + length part;
        incr fill
      in
      List.iter
        (fun r ->
          match r with
          | Concat { parts = ps; _ } -> Array.iter push ps
          | Slice _ | Gen _ -> push r)
        runs;
      Concat { parts; starts; len = !cursor }

let blit_part part buf dst_pos =
  match part with
  | Slice { values; off; len } -> Array.blit values off buf dst_pos len
  | Gen { tag; first; len } ->
      for i = 0 to len - 1 do
        buf.(dst_pos + i) <- Page.pattern_value ~tag (first + i)
      done
  | Concat _ -> assert false

let to_array t =
  let buf = Array.make (length t) Page.zero_value in
  (match t with
  | Concat { parts; starts; _ } ->
      Array.iteri (fun p part -> blit_part part buf starts.(p)) parts
  | (Slice _ | Gen _) as part -> blit_part part buf 0);
  buf

(* One digest per page, through a [Page.sink]: Slice parts hand over
   their values, Gen parts only their (tag, first, len). *)
let sink_digests ~memo t =
  let out = Array.make (length t) 0 in
  let s = Page.sink ~memo out in
  let part pos = function
    | Slice { values; off; len } -> Page.sink_values s values ~off ~len ~pos
    | Gen { tag; first; len } -> Page.sink_pattern s ~tag ~first ~len ~pos
    | Concat _ -> assert false
  in
  (match t with
  | Concat { parts; starts; _ } ->
      Array.iteri (fun p r -> part starts.(p) r) parts
  | Slice _ | Gen _ -> part 0 t);
  Page.sink_close s;
  out

let digests t = sink_digests ~memo:true t
let checksums t = sink_digests ~memo:false t

let iteri f t =
  let base = ref 0 in
  let leaf part =
    (match part with
    | Slice { values; off; len } ->
        for i = 0 to len - 1 do
          f (!base + i) values.(off + i)
        done
    | Gen { tag; first; len } ->
        for i = 0 to len - 1 do
          f (!base + i) (Page.pattern_value ~tag (first + i))
        done
    | Concat _ -> assert false);
    base := !base + length part
  in
  match t with Concat { parts; _ } -> Array.iter leaf parts | _ -> leaf t

let init n f = of_array (Array.init n f)

let equal a b =
  length a = length b
  &&
  let ok = ref true in
  iteri (fun i v -> ok := !ok && Page.equal_value v (get b i)) a;
  !ok
