(* The four xoshiro256** words live unboxed in 32 private bytes, read
   and written in native byte order (which nothing ever observes), so a
   draw allocates nothing where the int64 arithmetic stays local. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64, used only to expand the integer seed into xoshiro state. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  t

let of_splitmix state =
  let s0 = splitmix_next state in
  let s1 = splitmix_next state in
  let s2 = splitmix_next state in
  let s3 = splitmix_next state in
  of_words s0 s1 s2 s3

let create seed = of_splitmix (ref (Int64.of_int seed))

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step. Inlined into every caller, so a caller that
   converts the result to an int or a float never boxes it. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 in
  let s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 8 (logxor s1 s2);
  set64 t 0 (logxor s0 s3);
  set64 t 16 (logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

let bits64 t = next t

let split t = of_splitmix (ref (next t))

let copy t = Bytes.copy t

(* The top 62 bits of the next draw, as a non-negative int. *)
let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Uniform int in [0, n) by rejection on the top 62 bits, avoiding
   modulo bias. *)
let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  let v = ref (bits62 t) in
  let bound = (max_int / n) * n in
  while !v >= bound do
    v := bits62 t
  done;
  !v mod n

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random bits mapped to [0,1). *)
  let u = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x *. (u *. 0x1p-53)

let bool t = Int64.logand (next t) 1L = 1L

let rec gaussian ?(mu = 0.0) ?(sigma = 1.0) t =
  let u = (2.0 *. float t 1.0) -. 1.0 in
  let v = (2.0 *. float t 1.0) -. 1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || s = 0.0 then gaussian ~mu ~sigma t
  else mu +. (sigma *. u *. sqrt (-2.0 *. log s /. s))

let exponential t lambda =
  if lambda <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  -.log (1.0 -. float t 1.0) /. lambda

let lognormal_factor t s =
  if s <= 0.0 then 1.0
  else exp (gaussian ~sigma:s t -. (s *. s /. 2.0))

type state = int64 * int64 * int64 * int64

let state t = (get64 t 0, get64 t 8, get64 t 16, get64 t 24)

let set_state t (s0, s1, s2, s3) =
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3
