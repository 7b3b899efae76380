(* Bounded-memory streaming statistics.

   The accumulator keeps running moments (Welford) in an unboxed float
   array, so [add] performs no allocation on the steady state — the old
   representation retained every sample in a boxed float list, which made
   live heap grow O(observations) and [add] cost two minor-heap
   allocations; queue servers feed two of these per job on every host,
   so a million-event cluster run retained tens of megabytes of floats
   it would only ever reduce to five scalars.

   Quantiles come from a two-mode sample store:

   - {e exact mode}: up to [exact_capacity] samples are retained in a
     flat (unboxed) float array and percentiles interpolate over the
     sorted copy, byte-identical to the historical all-samples
     behaviour.  Every printed table in the repo draws from series far
     below the default capacity, so their output is unchanged.
   - {e sketch mode}: past the capacity the samples collapse into a
     DDSketch-style logarithmic histogram (relative accuracy
     [sketch_alpha] per magnitude), and memory stays bounded by the
     dynamic range of the data, independent of the observation count.

   A moments-only accumulator ([exact_capacity = no_store]) has no
   sample store at all: a few words, and no [log] per sample. *)

let sketch_alpha = 0.01
let default_exact_capacity = 4096

(* gamma = (1 + a) / (1 - a): bucket i covers (gamma^(i-1), gamma^i],
   so the midpoint estimate 2*gamma^i/(gamma+1) is within [sketch_alpha]
   relative error of anything in the bucket *)
let gamma = (1. +. sketch_alpha) /. (1. -. sketch_alpha)
let log_gamma = log gamma

(* one signed side of the sketch: log-binned counts over magnitudes,
   kept in a growable window [base, base + Array.length bins) *)
type side = {
  mutable bins : int array;
  mutable base : int;
  mutable n : int;  (* total count on this side *)
}

type sketch = {
  pos : side;
  neg : side;  (* binned on |x|, walked in reverse for order stats *)
  mutable zeros : int;
}

type t = {
  mutable count : int;
  moments : float array;  (* total, mean, m2, min, max — unboxed *)
  exact_capacity : int;
  mutable exact : float array;  (* unboxed; only [exact_len] are live *)
  mutable exact_len : int;
  mutable sketch : sketch option;  (* Some once capacity was exceeded *)
}

let no_store = -1 (* exact_capacity of a moments-only accumulator *)
let i_total = 0
let i_mean = 1
let i_m2 = 2
let i_min = 3
let i_max = 4

let create ?(exact_capacity = default_exact_capacity) () =
  if exact_capacity < 0 then
    invalid_arg "Stats.create: exact_capacity must be >= 0";
  let moments = Array.make 5 0. in
  moments.(i_min) <- infinity;
  moments.(i_max) <- neg_infinity;
  {
    count = 0;
    moments;
    exact_capacity;
    exact = [||];
    exact_len = 0;
    sketch = None;
  }

let moments_only () = { (create ()) with exact_capacity = no_store }

let clear t =
  t.count <- 0;
  t.moments.(i_total) <- 0.;
  t.moments.(i_mean) <- 0.;
  t.moments.(i_m2) <- 0.;
  t.moments.(i_min) <- infinity;
  t.moments.(i_max) <- neg_infinity;
  t.exact <- [||];
  t.exact_len <- 0;
  t.sketch <- None

(* --- the sketch --------------------------------------------------------- *)

let bin_of_magnitude v = int_of_float (Float.ceil (log v /. log_gamma))
let magnitude_of_bin i = 2. *. exp (float_of_int i *. log_gamma) /. (gamma +. 1.)

let side_add_n side idx n =
  let cap = Array.length side.bins in
  if cap = 0 then begin
    side.bins <- Array.make 16 0;
    side.base <- idx - 8
  end
  else if idx < side.base || idx >= side.base + cap then begin
    (* re-window: grow to cover both the old window and the new index *)
    let lo = min idx side.base and hi = max (idx + 1) (side.base + cap) in
    let need = hi - lo in
    let size = ref (max 16 cap) in
    while !size < need do
      size := !size * 2
    done;
    (* centre the old window inside the new array so growth in either
       direction stays amortized *)
    let slack = !size - need in
    let base = lo - (slack / 2) in
    let bins = Array.make !size 0 in
    Array.blit side.bins 0 bins (side.base - base) cap;
    side.bins <- bins;
    side.base <- base
  end;
  side.bins.(idx - side.base) <- side.bins.(idx - side.base) + n;
  side.n <- side.n + n

let side_add side idx = side_add_n side idx 1

let sketch_add sk x =
  if x > 0. then side_add sk.pos (bin_of_magnitude x)
  else if x < 0. then side_add sk.neg (bin_of_magnitude (-.x))
  else sk.zeros <- sk.zeros + 1

let fresh_sketch () =
  {
    pos = { bins = [||]; base = 0; n = 0 };
    neg = { bins = [||]; base = 0; n = 0 };
    zeros = 0;
  }

(* move into sketch mode: fold the retained exact samples in and drop
   the array (from here on memory is bounded by the data's dynamic
   range, not the observation count) *)
let spill_to_sketch t =
  let sk = fresh_sketch () in
  for i = 0 to t.exact_len - 1 do
    sketch_add sk t.exact.(i)
  done;
  t.exact <- [||];
  t.exact_len <- 0;
  t.sketch <- Some sk

let store_sample t x =
  match t.sketch with
  | Some sk -> sketch_add sk x
  | None ->
      if t.exact_len >= t.exact_capacity then begin
        spill_to_sketch t;
        match t.sketch with
        | Some sk -> sketch_add sk x
        | None -> assert false
      end
      else begin
        let cap = Array.length t.exact in
        if t.exact_len = cap then begin
          let grown =
            Array.make (min t.exact_capacity (max 16 (cap * 2))) 0.
          in
          Array.blit t.exact 0 grown 0 t.exact_len;
          t.exact <- grown
        end;
        t.exact.(t.exact_len) <- x;
        t.exact_len <- t.exact_len + 1
      end

(* --- the accumulator ---------------------------------------------------- *)

let[@inline] add_value t x =
  t.count <- t.count + 1;
  let m = t.moments in
  m.(i_total) <- m.(i_total) +. x;
  let delta = x -. m.(i_mean) in
  m.(i_mean) <- m.(i_mean) +. (delta /. float_of_int t.count);
  m.(i_m2) <- m.(i_m2) +. (delta *. (x -. m.(i_mean)));
  if x < m.(i_min) then m.(i_min) <- x;
  if x > m.(i_max) then m.(i_max) <- x;
  if t.exact_capacity <> no_store then store_sample t x

let add t x = add_value t x

(* the sample is read here, so it never crosses a module boxed *)
let add_at t cell i = add_value t cell.(i)

let count t = t.count
let total t = t.moments.(i_total)
let mean t = if t.count = 0 then 0. else t.moments.(i_mean)

let variance t =
  if t.count < 2 then 0. else t.moments.(i_m2) /. float_of_int (t.count - 1)

let min_value t = t.moments.(i_min)
let max_value t = t.moments.(i_max)
let retained_exactly t = t.sketch = None && t.exact_capacity <> no_store

(* interpolated percentile over a sorted array prefix — the historical
   definition, unchanged *)
let percentile_sorted arr n p =
  let p = Float.max 0. (Float.min 100. p) in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then arr.(lo)
  else
    let frac = rank -. float_of_int lo in
    (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)

(* the k-th (0-based) order statistic as the sketch sees it: negatives
   by descending magnitude, then zeros, then positives by ascending
   magnitude; each bucket answers with its midpoint estimate, clamped
   into the exactly-tracked [min, max] *)
let sketch_order_stat t sk k =
  let clamp v =
    Float.max t.moments.(i_min) (Float.min t.moments.(i_max) v)
  in
  let remaining = ref k and result = ref nan in
  let take count value =
    if Float.is_nan !result then
      if !remaining < count then result := value
      else remaining := !remaining - count
  in
  let neg_cap = Array.length sk.neg.bins in
  (if sk.neg.n > 0 then
     for i = neg_cap - 1 downto 0 do
       let c = sk.neg.bins.(i) in
       if c > 0 then
         take c (clamp (-.magnitude_of_bin (sk.neg.base + i)))
     done);
  take sk.zeros 0.;
  let pos_cap = Array.length sk.pos.bins in
  (if sk.pos.n > 0 then
     for i = 0 to pos_cap - 1 do
       let c = sk.pos.bins.(i) in
       if c > 0 then take c (clamp (magnitude_of_bin (sk.pos.base + i)))
     done);
  !result

let percentile t p =
  if t.exact_capacity = no_store then
    invalid_arg "Stats.percentile: a moments-only accumulator keeps no samples"
  else if t.count = 0 then 0.
  else
    match t.sketch with
    | None ->
        let arr = Array.sub t.exact 0 t.exact_len in
        Array.sort Float.compare arr;
        percentile_sorted arr t.exact_len p
    | Some sk ->
        let p = Float.max 0. (Float.min 100. p) in
        let rank = p /. 100. *. float_of_int (t.count - 1) in
        let lo = int_of_float (Float.floor rank) in
        let hi = int_of_float (Float.ceil rank) in
        let v_lo = sketch_order_stat t sk lo in
        if lo = hi then v_lo
        else
          let v_hi = sketch_order_stat t sk hi in
          let frac = rank -. float_of_int lo in
          (v_lo *. (1. -. frac)) +. (v_hi *. frac)

(* --- merge -------------------------------------------------------------- *)

let merge_side dst src =
  let cap = Array.length src.bins in
  for i = 0 to cap - 1 do
    let c = src.bins.(i) in
    if c > 0 then side_add_n dst (src.base + i) c
  done

let merge a b =
  let bare = a.exact_capacity = no_store || b.exact_capacity = no_store in
  let t =
    if bare then moments_only ()
    else create ~exact_capacity:(max a.exact_capacity b.exact_capacity) ()
  in
  match (a.sketch, b.sketch) with
  | None, None when not bare ->
      (* both fully retained: re-feed the samples in insertion order, as
         the historical merge did *)
      for i = 0 to a.exact_len - 1 do
        add t a.exact.(i)
      done;
      for i = 0 to b.exact_len - 1 do
        add t b.exact.(i)
      done;
      t
  | _ when a.count + b.count = 0 -> t
  | _ ->
      (* moments: Chan's pairwise combination *)
      let na = float_of_int a.count and nb = float_of_int b.count in
      let n = na +. nb in
      let ma = a.moments and mb = b.moments in
      let m = t.moments in
      t.count <- a.count + b.count;
      m.(i_total) <- ma.(i_total) +. mb.(i_total);
      let delta = mb.(i_mean) -. ma.(i_mean) in
      m.(i_mean) <- ma.(i_mean) +. (delta *. nb /. n);
      m.(i_m2) <- ma.(i_m2) +. mb.(i_m2) +. (delta *. delta *. na *. nb /. n);
      m.(i_min) <- Float.min ma.(i_min) mb.(i_min);
      m.(i_max) <- Float.max ma.(i_max) mb.(i_max);
      if not bare then begin
        (* samples: everything collapses into one sketch *)
        let sk = fresh_sketch () in
        let feed side =
          match side.sketch with
          | Some s ->
              merge_side sk.pos s.pos;
              merge_side sk.neg s.neg;
              sk.zeros <- sk.zeros + s.zeros
          | None ->
              for i = 0 to side.exact_len - 1 do
                sketch_add sk side.exact.(i)
              done
        in
        feed a;
        feed b;
        t.sketch <- Some sk
      end;
      t

let pp ppf t =
  Format.fprintf ppf "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" t.count
    (mean t) (sqrt (variance t)) t.moments.(i_min) t.moments.(i_max)

(* --- batch helpers ------------------------------------------------------ *)

let mean_of = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Batch percentile over a list; always exact regardless of length, and
   empty series report 0 rather than raising or propagating a NaN into a
   report row (a cluster run where a policy triggers zero migrations is
   a legitimate, empty series). *)
let percentile_of xs p =
  match xs with
  | [] -> 0.
  | xs ->
      let arr = Array.of_list xs in
      Array.sort Float.compare arr;
      percentile_sorted arr (Array.length arr) p
