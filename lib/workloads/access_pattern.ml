open Accent_util

type t =
  | Sequential of { streams : int; revisit : float; run : int }
  | Clustered_random of { cluster : float }
  | Hot_cold of { hot_fraction : float; hot_prob : float }

(* Positions here index the universe array — i.e. they are collapsed-space
   page numbers, which is the coordinate system prefetch operates in. *)

(* Each chooser writes distinct positions into [out] (its length is the
   touched count) and returns how many it wrote. *)

(* Append [q] to [out] at [n] unless [taken] already marks it; the new
   count. *)
let take taken out n q =
  if Bytes.get taken q <> '\000' then n
  else begin
    Bytes.set taken q '\001';
    out.(n) <- q;
    n + 1
  end

(* Each stream owns a section of the universe and touches runs of ~[run]
   consecutive pages separated by gaps (distinct mapped files and data
   areas are not perfectly contiguous in the collapsed space), which is
   what keeps large-prefetch hit ratios below 100%.  Every span stays
   inside its section, so the positions come out ascending. *)
let span_positions ~rng ~universe_len ~parts ~run out =
  let count = Array.length out in
  let parts = max 1 (min parts count) in
  let run = max 1 run in
  let section = universe_len / parts in
  let per = count / parts and extra = count mod parts in
  let k = ref 0 in
  for i = 0 to parts - 1 do
    let want = min section (per + if i < extra then 1 else 0) in
    let gap = max 0 (section - want) / max 1 ((want + run - 1) / run) in
    let pos = ref ((i * section) + if gap > 1 then Rng.int rng gap else 0) in
    for j = 1 to want do
      out.(!k) <- !pos;
      incr k;
      pos := !pos + if j mod run = 0 then 1 + gap else 1
    done
  done;
  !k

let cluster_positions ~rng ~universe_len ~cluster out =
  let count = Array.length out in
  let p = 1. /. Float.max 1. cluster in
  let taken = Bytes.make universe_len '\000' in
  let n = ref 0 in
  while !n < count do
    let len = min (1 + Rng.geometric rng p) (count - !n) in
    (* the +1 keeps the final page reachable: without it a touched set
       equal to the whole universe could never complete *)
    let start = Rng.int rng (max 1 (universe_len - len + 1)) in
    for q = start to start + len - 1 do
      n := take taken out !n q
    done
  done;
  count

let hot_cold_positions ~rng ~universe_len ~hot_fraction out =
  let count = Array.length out in
  let hot_n = max 1 (int_of_float (hot_fraction *. float_of_int count)) in
  let hot_n = min hot_n count in
  let start = Rng.int rng (max 1 (universe_len - hot_n + 1)) in
  let taken = Bytes.make universe_len '\000' in
  let n = ref 0 in
  for q = start to start + hot_n - 1 do
    n := take taken out !n q
  done;
  while !n < count do
    n := take taken out !n (Rng.int rng universe_len)
  done;
  count

let choose_touched_in t ~rng ~universe_len ~page_of ~count =
  if count > universe_len then
    invalid_arg "Access_pattern.choose_touched: count exceeds universe";
  let out = Array.make count 0 in
  let have =
    match t with
    | Sequential { streams; run; _ } ->
        span_positions ~rng ~universe_len ~parts:streams ~run out
    | Clustered_random { cluster } ->
        cluster_positions ~rng ~universe_len ~cluster out
    | Hot_cold { hot_fraction; _ } ->
        hot_cold_positions ~rng ~universe_len ~hot_fraction out
  in
  (* Only spans can fall short of [count], and they come out ascending:
     sort only a full set that is out of order, with a merge sort
     ([Array.sort]'s heap sort is slow even on a sorted run). *)
  let ascending = ref true in
  for i = 1 to have - 1 do
    if out.(i - 1) > out.(i) then ascending := false
  done;
  if not !ascending then Array.stable_sort Int.compare out;
  (* Spans fall short only when every section is full (no gap, no
     jitter), holding exactly the positions [0, have): the top-up is the
     next [count - have] positions. *)
  assert (have = count || out.(have - 1) = have - 1);
  for k = 0 to count - 1 do
    out.(k) <- page_of (if k < have then out.(k) else k)
  done;
  out

let choose_touched t ~rng ~universe ~count =
  choose_touched_in t ~rng ~universe_len:(Array.length universe)
    ~page_of:(Array.get universe) ~count

(* --- trace generation --------------------------------------------------- *)

(* Each order writes the trace's first steps into [dst] and returns how
   many it wrote: every touched page once, plus Sequential's revisits. *)

let sequential_order ~rng ~streams ~revisit touched dst =
  let n = Array.length touched in
  let streams = max 1 (min streams n) in
  let bound = Array.init (streams + 1) (fun i -> i * n / streams) in
  let cursors = Array.sub bound 0 streams in
  let k = ref 0 and left = ref n and s = ref 0 in
  while !left > 0 do
    let st = !s in
    s := if st + 1 = streams then 0 else st + 1;
    let pos = cursors.(st) and lo = bound.(st) in
    if pos < bound.(st + 1) then begin
      cursors.(st) <- pos + 1;
      decr left;
      dst.(!k) <- touched.(pos);
      incr k;
      (* occasional re-reference to a recently-seen page of this stream *)
      if Rng.bernoulli rng revisit && pos > lo then begin
        dst.(!k) <- touched.(pos - 1 - Rng.int rng (min 8 (pos - lo)));
        incr k
      end
    end
  done;
  !k

(* The maximal runs of consecutive pages, visited in shuffled order. *)
let clustered_order ~rng touched dst =
  let n = Array.length touched in
  let joins i = i < n && touched.(i) = touched.(i - 1) + 1 in
  let runs = ref 1 in
  for i = 1 to n - 1 do
    if not (joins i) then incr runs
  done;
  let starts = Array.make !runs 0 and r = ref 1 in
  for i = 1 to n - 1 do
    if not (joins i) then begin
      starts.(!r) <- i;
      incr r
    end
  done;
  Rng.shuffle rng starts;
  let k = ref 0 in
  for r = 0 to !runs - 1 do
    let i = ref starts.(r) in
    dst.(!k) <- touched.(!i);
    incr k;
    while joins (!i + 1) do
      incr i;
      dst.(!k) <- touched.(!i);
      incr k
    done
  done;
  n

(* Array-based throughout: a churn run builds one trace per arriving
   job, so the steps are written once, straight into the arrays the trace
   keeps (copied once more only when [refs] is short of Sequential's bound,
   one revisit per touched page),
   and each think time is drawn into its cell.  The RNG call sequence is
   base order, then filler picks in index order, then one think-time draw
   per step, then the zero-fill shuffle. *)
let generate t ~rng ~touched ~refs ~total_think_ms ~zero_fill =
  let n = Array.length touched in
  if n = 0 then
    Accent_kernel.Trace.of_arrays ~pages:[||] ~think_ms:[||]
      ~writes:Bytes.empty
  else begin
    let z, zero_pages = zero_fill in
    let cap = match t with Sequential _ -> 2 * n | _ -> n in
    let buf = Array.make (if refs >= cap then refs + z else cap) 0 in
    let base_len =
      match t with
      | Sequential { streams; revisit; run = _ } ->
          sequential_order ~rng ~streams ~revisit touched buf
      | Clustered_random _ -> clustered_order ~rng touched buf
      | Hot_cold _ ->
          (* hot span first (initialisation), then the cold pages *)
          Array.blit touched 0 buf 0 n;
          n
    in
    let total = max base_len refs in
    let pages =
      if Array.length buf = total + z then buf
      else begin
        let pages = Array.make (total + z) 0 in
        Array.blit buf 0 pages 0 base_len;
        pages
      end
    in
    (match t with
    | Hot_cold { hot_fraction; hot_prob } ->
        let hot_n = max 1 (int_of_float (hot_fraction *. float_of_int n)) in
        for i = base_len to total - 1 do
          pages.(i) <-
            (if Rng.bernoulli rng hot_prob then touched.(Rng.int rng hot_n)
             else touched.(Rng.int rng n))
        done
    | Sequential _ | Clustered_random _ ->
        for i = base_len to total - 1 do
          pages.(i) <- touched.(Rng.int rng n)
        done);
    let think_ms =
      Array.make (total + z) (total_think_ms /. float_of_int total)
    in
    for i = 0 to total - 1 do
      Rng.exponential_at rng think_ms i
    done;
    if z > 0 then begin
      (* Zero-fill slot [i] lands just before generated step
         [s = (i+1)*total/(z+1)], at index [s + i]: spread the steps
         from the back, one division per slot. *)
      Rng.shuffle rng zero_pages;
      let i = ref (z - 1) and s = ref (z * total / (z + 1)) in
      for k = total - 1 downto -1 do
        while !i >= 0 && !s > k do
          pages.(!s + !i) <- zero_pages.(!i);
          think_ms.(!s + !i) <- 1.0;
          decr i;
          s := (!i + 1) * total / (z + 1)
        done;
        if k >= 0 then begin
          pages.(k + !i + 1) <- pages.(k);
          think_ms.(k + !i + 1) <- think_ms.(k)
        end
      done
    end;
    Accent_kernel.Trace.of_arrays ~pages ~think_ms
      ~writes:(Bytes.make (total + z) '\000')
  end
