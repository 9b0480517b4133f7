type range = { lo : int; hi : int }

let size r = r.hi - r.lo

let ranges ~n ~k =
  if n < 0 then invalid_arg "Shard.ranges: n < 0";
  let k = Int.max 1 k in
  let k = Int.min k (Int.max 1 n) in
  if n = 0 then [||]
  else begin
    let base = n / k and extra = n mod k in
    let out = Array.make k { lo = 0; hi = 0 } in
    let lo = ref 0 in
    for i = 0 to k - 1 do
      let w = base + if i < extra then 1 else 0 in
      out.(i) <- { lo = !lo; hi = !lo + w };
      lo := !lo + w
    done;
    out
  end
