(* splitmix64.  The 8-byte state lives in a [Bytes.t] rather than a
   mutable [int64] field: the bytes get/set primitives compile to raw
   unboxed loads and stores, so advancing the generator allocates
   nothing, where a boxed-int64 field costs a fresh 3-word box per
   draw — and trace generation draws several times per reference.
   [next] and [mix] are [@inline always] so the whole advance-and-mix
   chain lands inside each caller and every intermediate [int64] stays
   in registers. *)

type t = { state : Bytes.t }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Finalizer from splitmix64: two xor-shift-multiply rounds give full
   avalanche, so consecutive seeds produce uncorrelated streams. *)
let[@inline always] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] create seed =
  let state = Bytes.create 8 in
  Bytes.set_int64_ne state 0 seed;
  { state }

let[@inline always] next t =
  let s = Int64.add (Bytes.get_int64_ne t.state 0) golden_gamma in
  Bytes.set_int64_ne t.state 0 s;
  mix s

let bits64 t = next t

(* FNV-1a over the label bytes, folded into the parent's seed.  Used only to
   derive stream seeds, not as a general-purpose hash.  The loop keeps the
   hash in a register: no [int64] is boxed per byte. *)
let of_label t label =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length label - 1 do
    h := Int64.(mul (logxor !h (of_int (Char.code label.[i]))) 0x100000001B3L)
  done;
  create (mix (Int64.logxor (Bytes.get_int64_ne t.state 0) !h))

let split t = create (next t)

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (Int64.logand (next t) 0x3FFFFFFFFFFFFFFFL) in
  r mod bound

let[@inline] float t bound =
  assert (bound > 0.);
  (* 53 random bits scaled to [0,1), as in the Java reference. *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0) *. bound

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else float t 1.0 < p

let[@inline] exponential t mean =
  assert (mean > 0.);
  let u = float t 1.0 in
  (* 1 - u avoids log 0. *)
  -.mean *. log (1.0 -. u)

let exponential_at t cell i = cell.(i) <- exponential t cell.(i)

let geometric t p =
  assert (p > 0. && p <= 1.);
  if p >= 1. then 0
  else
    let u = float t 1.0 in
    int_of_float (Float.floor (log (1.0 -. u) /. log (1.0 -. p)))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
