type step = { page : Accent_mem.Page.index; think_ms : float; write : bool }

(* Struct-of-arrays: the hot loop reads one page index, one think time
   and one write flag per event, so each lives in its own flat array —
   an [int array] slot, an unboxed [float array] slot and one byte —
   instead of a pointer to a three-field record whose float field the
   runtime boxes.  Building a trace costs ~2 words per step this way,
   and stepping one reads three flat slots. *)
type t = {
  t_pages : Accent_mem.Page.index array;
  t_think : float array;
  t_write : Bytes.t;
}

let step_read ?(think_ms = 0.) page = { page; think_ms; write = false }

let of_arrays ~pages ~think_ms ~writes =
  if
    Array.length pages <> Array.length think_ms
    || Array.length pages <> Bytes.length writes
  then invalid_arg "Trace.of_arrays: length mismatch";
  { t_pages = pages; t_think = think_ms; t_write = writes }

let of_array steps =
  let n = Array.length steps in
  {
    t_pages = Array.map (fun s -> s.page) steps;
    t_think = Array.map (fun s -> s.think_ms) steps;
    t_write =
      Bytes.init n (fun i -> if steps.(i).write then '\001' else '\000');
  }

let of_steps steps = of_array (Array.of_list steps)
let length t = Array.length t.t_pages

let[@inline] page_at t i = t.t_pages.(i)
let[@inline] think_at t i = t.t_think.(i)
let[@inline] write_at t i = Bytes.unsafe_get t.t_write i <> '\000'

let total_think_ms t = Array.fold_left ( +. ) 0. t.t_think

let pages t =
  let seen = Hashtbl.create 256 in
  let order = ref [] in
  Array.iter
    (fun page ->
      if not (Hashtbl.mem seen page) then begin
        Hashtbl.replace seen page ();
        order := page :: !order
      end)
    t.t_pages;
  List.rev !order

let distinct_pages t = List.length (pages t)

let write_count t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t.t_write;
  !n

let with_writes ~rng ~fraction t =
  {
    t with
    t_write =
      Bytes.init (length t) (fun _ ->
          if Accent_util.Rng.bernoulli rng fraction then '\001' else '\000');
  }
