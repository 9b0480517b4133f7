open Taqp_data
open Taqp_storage

let pages_of_tuples ?(blocking_factor = 5) n =
  (n + blocking_factor - 1) / blocking_factor

let charge_output device n =
  match device with
  | None -> ()
  | Some d ->
      Device.output_tuples d ~n;
      Device.write_pages d ~n:(pages_of_tuples n)

let select ?device ~schema pred tuples =
  let test = Predicate.compile schema pred in
  let comparisons = Predicate.comparisons pred in
  (match device with
  | None -> ()
  | Some d -> Device.check_tuples d ~n:(Array.length tuples) ~comparisons);
  let out = Array.of_seq (Seq.filter test (Array.to_seq tuples)) in
  charge_output device (Array.length out);
  out

let compare_with_key key a b =
  let c = Tuple.compare_on key a b in
  if c <> 0 then c else Tuple.compare a b

(* Same total order as [compare_with_key] — key positions first, then
   the remaining fields in index order (re-comparing a key field is a
   no-op, so dropping the duplicates preserves the order) — but as a
   single position array walked once, instead of a full-field tie-break
   re-entered through a closure on every comparison. *)
let key_comparator ~arity key =
  let in_key = Array.make (Int.max 1 arity) false in
  Array.iter (fun k -> if k < arity then in_key.(k) <- true) key;
  let rest = ref [] in
  for i = arity - 1 downto 0 do
    if not in_key.(i) then rest := i :: !rest
  done;
  let order = Array.append key (Array.of_list !rest) in
  Tuple.compare_on order

let sort_stage ?device ~key tuples =
  let n = Array.length tuples in
  (match device with
  | None -> ()
  | Some d ->
      Device.write_temp_tuples d ~n;
      Device.write_pages d ~n:(pages_of_tuples n);
      Device.sort d ~n);
  let copy = Array.copy tuples in
  let arity = if n = 0 then 0 else Tuple.arity tuples.(0) in
  Array.sort (key_comparator ~arity key) copy;
  copy

let key_positions schema names =
  Array.of_list (List.map (Schema.find schema) names)

let split_equi_pairs ~schema_l ~schema_r pred =
  let pairs = Predicate.equi_join_pairs pred in
  let in_l a = Schema.mem schema_l a and in_r a = Schema.mem schema_r a in
  let oriented, leftover =
    List.partition_map
      (fun (a, b) ->
        if in_l a && in_r b then Left (a, b)
        else if in_l b && in_r a then Left (b, a)
        else Right (a, b))
      pairs
  in
  let key_l =
    Array.of_list (List.map (fun (a, _) -> Schema.find schema_l a) oriented)
  in
  let key_r =
    Array.of_list (List.map (fun (_, b) -> Schema.find schema_r b) oriented)
  in
  let residual = Predicate.residual_of_equi pred in
  let residual =
    match leftover with
    | [] -> residual
    | pairs ->
        Predicate.conj
          (residual
           :: List.map
                (fun (a, b) ->
                  Predicate.Cmp (Predicate.Eq, Predicate.Attr a, Predicate.Attr b))
                pairs)
  in
  ((key_l, key_r), residual)

(* Merge two key-sorted arrays; [emit] receives every cross pair of each
   key-equal group. Charges one merge step per tuple read. *)
let merge_groups ?device ~key_l ~key_r left right emit =
  let nl = Array.length left and nr = Array.length right in
  (match device with
  | None -> ()
  | Some d -> Device.merge_tuples d ~n:(nl + nr));
  let compare_keys a b =
    let rec go i =
      if i >= Array.length key_l then 0
      else
        let c =
          Value.compare (Tuple.get a key_l.(i)) (Tuple.get b key_r.(i))
        in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let i = ref 0 and j = ref 0 in
  while !i < nl && !j < nr do
    let c = compare_keys left.(!i) right.(!j) in
    if c < 0 then incr i
    else if c > 0 then incr j
    else begin
      (* Gather the key-equal groups on both sides. *)
      let i0 = !i and j0 = !j in
      let same_l k = k < nl && compare_keys left.(k) right.(j0) = 0 in
      let same_r k = k < nr && compare_keys left.(i0) right.(k) = 0 in
      while same_l !i do
        incr i
      done;
      while same_r !j do
        incr j
      done;
      for a = i0 to !i - 1 do
        for b = j0 to !j - 1 do
          emit left.(a) right.(b)
        done
      done
    end
  done

let merge_join ?device ~schema_l ~schema_r pred left right =
  let joined = Schema.concat schema_l schema_r in
  let (key_l, key_r), residual = split_equi_pairs ~schema_l ~schema_r pred in
  let test = Predicate.compile joined residual in
  let residual_cmps = Predicate.comparisons residual in
  let out = ref [] in
  let n_out = ref 0 in
  let consider a b =
    (match device with
    | None -> ()
    | Some d -> Device.check_tuples d ~n:1 ~comparisons:residual_cmps);
    let t = Tuple.concat a b in
    if test t then begin
      out := t :: !out;
      incr n_out
    end
  in
  if Array.length key_l = 0 then begin
    (* No usable join key: charged nested loop. *)
    (match device with
    | None -> ()
    | Some d ->
        Device.merge_tuples d ~n:(Array.length left + Array.length right));
    Array.iter (fun a -> Array.iter (fun b -> consider a b) right) left
  end
  else begin
    let sl = sort_stage ?device ~key:key_l left in
    let sr = sort_stage ?device ~key:key_r right in
    merge_groups ?device ~key_l ~key_r sl sr consider
  end;
  charge_output device !n_out;
  Array.of_list (List.rev !out)

let intersect ?device ~schema left right =
  let key = Array.init (Schema.arity schema) (fun i -> i) in
  let sl = sort_stage ?device ~key left in
  let sr = sort_stage ?device ~key right in
  let out = ref [] in
  let n_out = ref 0 in
  merge_groups ?device ~key_l:key ~key_r:key sl sr (fun a _ ->
      out := a :: !out;
      incr n_out);
  charge_output device !n_out;
  Array.of_list (List.rev !out)

let project_groups ?device ~schema names tuples =
  let positions = Array.to_list (key_positions schema names) in
  let projected = Array.map (fun t -> Tuple.project t positions) tuples in
  let key = Array.init (List.length positions) (fun i -> i) in
  let sorted = sort_stage ?device ~key projected in
  (* Step 3 of Figure 4.7: scan, write distinct tuples with occupancy. *)
  (match device with
  | None -> ()
  | Some d -> Device.merge_tuples d ~n:(Array.length sorted));
  let groups = ref [] in
  Array.iter
    (fun t ->
      match !groups with
      | (u, c) :: rest when Tuple.equal u t -> groups := (u, c + 1) :: rest
      | _ -> groups := (t, 1) :: !groups)
    sorted;
  let out = Array.of_list (List.rev !groups) in
  charge_output device (Array.length out);
  out

let sorted_all ?device tuples =
  let n = match tuples with [||] -> 0 | a -> Tuple.arity a.(0) in
  sort_stage ?device ~key:(Array.init n (fun i -> i)) tuples

let distinct ?device tuples =
  if Array.length tuples = 0 then [||]
  else begin
    let sorted = sorted_all ?device tuples in
    let out = ref [] in
    Array.iter
      (fun t ->
        match !out with
        | u :: _ when Tuple.equal u t -> ()
        | _ -> out := t :: !out)
      sorted;
    Array.of_list (List.rev !out)
  end

let union ?device left right =
  let merged = Array.append left right in
  let out = distinct ?device merged in
  charge_output device (Array.length out);
  out

let difference ?device left right =
  let sl = if Array.length left = 0 then [||] else sorted_all ?device left in
  let sr = if Array.length right = 0 then [||] else sorted_all ?device right in
  (match device with
  | None -> ()
  | Some d -> Device.merge_tuples d ~n:(Array.length sl + Array.length sr));
  let nr = Array.length sr in
  let out = ref [] in
  let j = ref 0 in
  Array.iter
    (fun t ->
      while !j < nr && Tuple.compare sr.(!j) t < 0 do
        incr j
      done;
      let dropped = !j < nr && Tuple.equal sr.(!j) t in
      let dup = match !out with u :: _ -> Tuple.equal u t | [] -> false in
      if (not dropped) && not dup then out := t :: !out)
    sl;
  let result = Array.of_list (List.rev !out) in
  charge_output device (Array.length result);
  result

let merge_sorted_join ~key_l ~key_r ~residual ~residual_comparisons:_ left
    right =
  let out = ref [] in
  merge_groups ~key_l ~key_r left right (fun a b ->
      let t = Tuple.concat a b in
      if residual t then out := t :: !out);
  List.rev !out

let merge_sorted_intersect left right =
  let arity = if Array.length left > 0 then Tuple.arity left.(0) else 0 in
  let key = Array.init arity (fun i -> i) in
  let out = ref [] in
  merge_groups ~key_l:key ~key_r:key left right (fun a _ -> out := a :: !out);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Retained hash indexes (the incremental evaluation path)             *)

module Hash_index = struct
  (* Buckets are keyed by the hash of the key-value array and resolved
     by full key comparison, so hash collisions (and cross-type numeric
     keys: Int 3 vs Float 3.0 hash and compare equal) are safe. Within
     a key group tuples are kept newest-first; probing emits groups in
     that fixed order, so a seeded run is reproducible. *)
  type group = { key_vals : Value.t array; mutable tuples : Tuple.t list }

  type t = {
    key : int array;
    buckets : (int, group list ref) Hashtbl.t;
    mutable size : int;
  }

  let create ~key = { key; buckets = Hashtbl.create 256; size = 0 }

  let key_positions t = t.key
  let length t = t.size

  let hash_key vals =
    Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 vals

  let key_equal a b =
    Array.length a = Array.length b
    &&
    let rec go i =
      i >= Array.length a || (Value.compare a.(i) b.(i) = 0 && go (i + 1))
    in
    go 0

  let find_group t vals =
    match Hashtbl.find_opt t.buckets (hash_key vals) with
    | None -> None
    | Some chain -> List.find_opt (fun g -> key_equal g.key_vals vals) !chain

  let add ?device t tuples =
    (match device with
    | None -> ()
    | Some d -> Device.hash_build d ~n:(Array.length tuples));
    Array.iter
      (fun tuple ->
        let vals = Tuple.key tuple t.key in
        (match find_group t vals with
        | Some g -> g.tuples <- tuple :: g.tuples
        | None -> (
            let g = { key_vals = vals; tuples = [ tuple ] } in
            let h = hash_key vals in
            match Hashtbl.find_opt t.buckets h with
            | Some chain -> chain := g :: !chain
            | None -> Hashtbl.replace t.buckets h (ref [ g ])));
        t.size <- t.size + 1)
      tuples

  let probe ~probe_key t tuples ~emit =
    Array.iter
      (fun probe_tuple ->
        match find_group t (Tuple.key probe_tuple probe_key) with
        | None -> ()
        | Some g ->
            List.iter (fun indexed -> emit ~indexed ~probe:probe_tuple) g.tuples)
      tuples
end

let probe_join_counted ~index ~probe_key ~indexed_side ~residual probes =
  let out = ref [] in
  let candidates = ref 0 in
  Hash_index.probe ~probe_key index probes ~emit:(fun ~indexed ~probe ->
      incr candidates;
      let t =
        match indexed_side with
        | `Left -> Tuple.concat indexed probe
        | `Right -> Tuple.concat probe indexed
      in
      if residual t then out := t :: !out);
  (List.rev !out, !candidates)

let hash_probe_join ~index ~probe_key ~indexed_side ~residual
    ~residual_comparisons:_ probes =
  fst (probe_join_counted ~index ~probe_key ~indexed_side ~residual probes)

let hash_probe_intersect ~index ~emit_side probes =
  let probe_key =
    match probes with
    | [||] -> Hash_index.key_positions index
    | a -> Array.init (Tuple.arity a.(0)) (fun i -> i)
  in
  let out = ref [] in
  Hash_index.probe ~probe_key index probes ~emit:(fun ~indexed ~probe ->
      let t = match emit_side with `Indexed -> indexed | `Probe -> probe in
      out := t :: !out);
  List.rev !out
