open Taqp_data

type t = { tuples : Tuple.t array; keys : int array option }

let length r = Array.length r.tuples

let int_keys ~key tuples =
  let w = Array.length key and n = Array.length tuples in
  let keys = Array.make (n * w) 0 in
  let ok = ref true and i = ref 0 in
  while !ok && !i < n do
    let t = tuples.(!i) in
    for c = 0 to w - 1 do
      match Tuple.get t key.(c) with
      | Value.Int v -> keys.((!i * w) + c) <- v
      | Value.Float _ | Value.String _ | Value.Bool _ | Value.Null ->
          ok := false
    done;
    incr i
  done;
  if !ok then Some keys else None

(* Lexicographic order of row [i] of [ka] against row [j] of [kb], both
   [w] ints wide. Int comparisons, never a subtraction: keys span the
   whole int range, and [min_int - max_int] overflows to a positive. *)
let rec compare_keys_from (ka : int array) w i (kb : int array) j c =
  if c = w then 0
  else
    let x = ka.((i * w) + c) and y = kb.((j * w) + c) in
    if x < y then -1
    else if x > y then 1
    else compare_keys_from ka w i kb j (c + 1)

let compare_keys ka w i kb j = compare_keys_from ka w i kb j 0

(* ------------------------------------------------------------------ *)
(* Sorting                                                             *)

(* Stable LSD radix sort of the ints [k], carrying the row indices [p]
   along: one counting pass per 8-bit digit, over only the low digits
   in which some key differs from [k.(0)]. Flipping the sign bit turns
   the signed order into the unsigned order the digits read, so keys
   across the whole int range sort correctly. *)
let radix_sort (k : int array) (p : int array) =
  let n = Array.length k in
  let varying = ref 0 in
  for i = 1 to n - 1 do
    varying := !varying lor (k.(i) lxor k.(0))
  done;
  let passes = ref 0 in
  while !passes < 8 && !varying lsr (8 * !passes) <> 0 do
    incr passes
  done;
  let count = Array.make 256 0 in
  let src_k = ref k and src_p = ref p in
  let dst_k = ref (Array.make n 0) and dst_p = ref (Array.make n 0) in
  for pass = 0 to !passes - 1 do
    let shift = 8 * pass in
    let sk = !src_k and sp = !src_p and dk = !dst_k and dp = !dst_p in
    Array.fill count 0 256 0;
    for i = 0 to n - 1 do
      let d = ((sk.(i) lxor min_int) lsr shift) land 255 in
      count.(d) <- count.(d) + 1
    done;
    let start = ref 0 in
    for d = 0 to 255 do
      let c = count.(d) in
      count.(d) <- !start;
      start := !start + c
    done;
    for i = 0 to n - 1 do
      let x = sk.(i) in
      let d = ((x lxor min_int) lsr shift) land 255 in
      dk.(count.(d)) <- x;
      dp.(count.(d)) <- sp.(i);
      count.(d) <- count.(d) + 1
    done;
    src_k := dk;
    src_p := dp;
    dst_k := sk;
    dst_p := sp
  done;
  if !src_k != k then begin
    Array.blit !src_k 0 k 0 n;
    Array.blit !src_p 0 p 0 n
  end

(* Reorder each run of equal ints in the sorted [k] by [cmp] on the
   rows' tuples. [Array.stable_sort] keeps the radix pass's input order
   among rows [cmp] finds equal. *)
let break_ties (k : int array) p tuples cmp =
  let n = Array.length k in
  let lo = ref 0 in
  while !lo < n do
    let hi = ref (!lo + 1) in
    while !hi < n && k.(!hi) = k.(!lo) do
      incr hi
    done;
    let len = !hi - !lo in
    if len > 1 then begin
      let group = Array.sub p !lo len in
      Array.stable_sort (fun a b -> cmp tuples.(a) tuples.(b)) group;
      Array.blit group 0 p !lo len
    end;
    lo := !hi
  done

(* The sort reads only the first key column's ints; a tie there goes to
   [cmp], which orders the remaining key columns and then every other
   field, so the order is [cmp]'s total order. It is total except among
   tuples whose fields all compare equal, and only their relative order
   can differ from the unstable [Array.sort]. That is unobservable:
   [Heap_file.create] pads a tuple to its slot by the size of its
   fields, [Tuple.concat] sums the operands' pads and [Tuple.project]
   drops them, so wherever a sort sees a tuple its pad is a function of
   its fields, and two such tuples are interchangeable in every later
   merge, aggregate and charge. *)
let sort ?keys ~key ~cmp tuples =
  let w = Array.length key in
  let keys =
    if w = 0 then None
    else match keys with Some _ -> keys | None -> int_keys ~key tuples
  in
  match keys with
  | None ->
      let s = Array.copy tuples in
      Array.sort cmp s;
      { tuples = s; keys = None }
  | Some keys ->
      let n = Array.length tuples in
      if Array.length keys <> n * w then
        invalid_arg "Sorted_run.sort: keys do not match the tuples";
      (* with one column the key array itself is sorted in place *)
      let k = if w = 1 then keys else Array.init n (fun i -> keys.(i * w)) in
      let p = Array.init n Fun.id in
      radix_sort k p;
      break_ties k p tuples cmp;
      let sorted_keys =
        if w = 1 then keys
        else begin
          let s = Array.make (n * w) 0 in
          Array.iteri (fun row i -> Array.blit keys (i * w) s (row * w) w) p;
          s
        end
      in
      { tuples = Array.map (fun i -> tuples.(i)) p; keys = Some sorted_keys }

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)

(* Every key-equal group of two runs' stored keys, in merge order:
   [group i0 i1 j0 j1] for rows [\[i0, i1)] of [kl] and [\[j0, j1)] of
   [kr]. *)
let iter_groups (kl : int array) (kr : int array) ~w ~nl ~nr group =
  let i = ref 0 and j = ref 0 in
  while !i < nl && !j < nr do
    let c = compare_keys kl w !i kr !j in
    if c < 0 then incr i
    else if c > 0 then incr j
    else begin
      let i0 = !i and j0 = !j in
      incr i;
      while !i < nl && compare_keys kl w !i kl i0 = 0 do
        incr i
      done;
      incr j;
      while !j < nr && compare_keys kr w !j kr j0 = 0 do
        incr j
      done;
      group i0 !i j0 !j
    end
  done

let merge_pairs ~key_l ~key_r l r emit =
  match (l.keys, r.keys) with
  | Some kl, Some kr ->
      let tl = l.tuples and tr = r.tuples in
      iter_groups kl kr ~w:(Array.length key_l) ~nl:(Array.length tl)
        ~nr:(Array.length tr) (fun i0 i1 j0 j1 ->
          for a = i0 to i1 - 1 do
            for b = j0 to j1 - 1 do
              emit tl.(a) tr.(b)
            done
          done)
  | _ -> Ops.merge_groups ~key_l ~key_r l.tuples r.tuples emit

let count_pairs ~key_l ~key_r l r =
  let n = ref 0 in
  (match (l.keys, r.keys) with
  | Some kl, Some kr ->
      iter_groups kl kr ~w:(Array.length key_l) ~nl:(length l) ~nr:(length r)
        (fun i0 i1 j0 j1 -> n := !n + ((i1 - i0) * (j1 - j0)))
  | _ -> Ops.merge_groups ~key_l ~key_r l.tuples r.tuples (fun _ _ -> incr n));
  !n

(* The pairs' images under [f] that [keep] accepts, in emission order,
   in one array sized by the candidate count. *)
let collect ~key_l ~key_r ~candidates l r f keep =
  let out = ref [||] and k = ref 0 in
  merge_pairs ~key_l ~key_r l r (fun a b ->
      let t = f a b in
      if keep t then begin
        if !k = 0 then out := Array.make candidates t;
        !out.(!k) <- t;
        incr k
      end);
  if !k = Array.length !out then !out else Array.sub !out 0 !k

let join ~key_l ~key_r ~residual l r =
  let candidates = count_pairs ~key_l ~key_r l r in
  let keep = Option.value residual ~default:(fun _ -> true) in
  (collect ~key_l ~key_r ~candidates l r Tuple.concat keep, candidates)

let intersect ~key l r =
  collect ~key_l:key ~key_r:key
    ~candidates:(count_pairs ~key_l:key ~key_r:key l r)
    l r
    (fun a _ -> a)
    (fun _ -> true)

let count_join ~key_l ~key_r ~residual l r =
  match residual with
  | None ->
      let n = count_pairs ~key_l ~key_r l r in
      (n, n)
  | Some residual ->
      let passed = ref 0 and candidates = ref 0 in
      merge_pairs ~key_l ~key_r l r (fun a b ->
          incr candidates;
          if residual (Tuple.concat a b) then incr passed);
      (!passed, !candidates)

let merge_join ~key_l ~key_r ~residual l r =
  let out, candidates = join ~key_l ~key_r ~residual:(Some residual) l r in
  (Array.to_list out, candidates)

let merge_intersect ~key l r = Array.to_list (intersect ~key l r)
