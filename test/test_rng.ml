module Prng = Taqp_rng.Prng
module Sample = Taqp_rng.Sample

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

let stream rng n = List.init n (fun _ -> Prng.int rng 1_000_000)

let test_determinism () =
  let a = stream (Prng.create 42) 50 and b = stream (Prng.create 42) 50 in
  Alcotest.check Alcotest.(list int) "same seed same stream" a b;
  let c = stream (Prng.create 43) 50 in
  checkb "different seed differs" true (a <> c)

let test_copy () =
  let rng = Prng.create 7 in
  ignore (stream rng 10);
  let clone = Prng.copy rng in
  Alcotest.check Alcotest.(list int) "copy continues identically" (stream rng 20)
    (stream clone 20)

let test_split_diverges () =
  let rng = Prng.create 7 in
  let child = Prng.split rng in
  checkb "parent and child differ" true (stream rng 20 <> stream child 20)

(* The first draws of two seeds, as the generator produced them when it
   kept its state in four mutable int64 fields: how the state is stored
   must not change the stream. *)
let test_pinned_streams () =
  let check_stream seed ~bits ~ints ~split =
    let rng = Prng.create seed in
    Alcotest.check
      Alcotest.(list int64)
      (Printf.sprintf "seed %d bits64" seed)
      bits
      (List.init 3 (fun _ -> Prng.bits64 rng));
    Alcotest.check
      Alcotest.(list int)
      (Printf.sprintf "seed %d int" seed)
      ints
      (List.init 5 (fun _ -> Prng.int rng 1_000_000));
    Alcotest.check Alcotest.int64
      (Printf.sprintf "seed %d split child" seed)
      split
      (Prng.bits64 (Prng.split (Prng.create seed)))
  in
  check_stream 42
    ~bits:[ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L ]
    ~ints:[ 531048; 329369; 437646; 550188; 453601 ]
    ~split:(-8150312660505607085L);
  check_stream 1989
    ~bits:[ -8899855226244593288L; 2067129308880673709L; -2335416547951080414L ]
    ~ints:[ 715002; 492657; 884450; 659781; 604069 ]
    ~split:824078940986999570L

(* [state]/[set_state], [copy] and [split] round trips: a generator set
   to another's state, or copied from it, continues its stream; a split
   child depends only on the parent's state at the split. *)
let test_state_round_trips () =
  let rng = Prng.create 99 in
  ignore (stream rng 7);
  let saved = Prng.state rng in
  let expect = stream rng 20 in
  let other = Prng.create 1 in
  Prng.set_state other saved;
  Alcotest.check Alcotest.(list int) "set_state resumes the stream" expect
    (stream other 20);
  checkb "state after equal draws" true (Prng.state other = Prng.state rng);
  Prng.set_state rng saved;
  checkb "state reads back what was set" true (Prng.state rng = saved);
  let clone = Prng.copy rng in
  Alcotest.check Alcotest.(list int) "copy continues identically"
    (stream rng 20) (stream clone 20);
  ignore (stream clone 3);
  checkb "a copy is independent" true (Prng.state clone <> Prng.state rng);
  Prng.set_state rng saved;
  let child = Prng.split rng in
  let after_split = Prng.state rng in
  Prng.set_state rng saved;
  let child' = Prng.split rng in
  Alcotest.check Alcotest.(list int) "split from one state, one child"
    (stream child 20) (stream child' 20);
  checkb "split advances the parent once" true (Prng.state rng = after_split);
  Prng.set_state rng saved;
  ignore (Prng.bits64 rng);
  checkb "by exactly one draw" true (Prng.state rng = after_split)

let test_int_errors () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0));
  Alcotest.check_raises "empty range"
    (Invalid_argument "Prng.int_in: empty range") (fun () ->
      ignore (Prng.int_in rng 3 2))

let test_int_in_bounds () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng (-3) 4 in
    checkb "in range" true (v >= -3 && v <= 4)
  done

let test_bool_both () =
  let rng = Prng.create 5 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool rng then incr trues
  done;
  checkb "roughly balanced" true (!trues > 400 && !trues < 600)

let test_gaussian_moments () =
  let rng = Prng.create 11 in
  let s = Taqp_stats.Summary.create () in
  for _ = 1 to 20_000 do
    Taqp_stats.Summary.add s (Prng.gaussian ~mu:3.0 ~sigma:2.0 rng)
  done;
  checkb "mean near 3" true (Float.abs (Taqp_stats.Summary.mean s -. 3.0) < 0.1);
  checkb "std near 2" true (Float.abs (Taqp_stats.Summary.stddev s -. 2.0) < 0.1)

let test_exponential_mean () =
  let rng = Prng.create 11 in
  let s = Taqp_stats.Summary.create () in
  for _ = 1 to 20_000 do
    Taqp_stats.Summary.add s (Prng.exponential rng 4.0)
  done;
  checkb "mean near 1/4" true (Float.abs (Taqp_stats.Summary.mean s -. 0.25) < 0.02)

let test_lognormal_mean_one () =
  let rng = Prng.create 11 in
  let s = Taqp_stats.Summary.create () in
  for _ = 1 to 50_000 do
    Taqp_stats.Summary.add s (Prng.lognormal_factor rng 0.2)
  done;
  checkb "mean corrected to 1" true
    (Float.abs (Taqp_stats.Summary.mean s -. 1.0) < 0.02);
  checkf "zero sigma is exactly 1" 1.0 (Prng.lognormal_factor rng 0.0)

let prop_int_bounds =
  QCheck.Test.make ~name:"Prng.int in [0,n)" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let v = Prng.int rng n in
      v >= 0 && v < n)

let prop_float_bounds =
  QCheck.Test.make ~name:"Prng.float in [0,x)" ~count:500
    QCheck.(pair small_int (QCheck.float_range 0.001 100.0))
    (fun (seed, x) ->
      let rng = Prng.create seed in
      let v = Prng.float rng x in
      v >= 0.0 && v < x)

(* ------------------------------------------------------------------ *)
(* Sampling primitives                                                 *)

let test_wor_distinct () =
  let rng = Prng.create 3 in
  let s = Sample.without_replacement rng ~k:100 ~n:1000 in
  checki "size" 100 (List.length s);
  checki "distinct" 100 (List.length (List.sort_uniq Int.compare s));
  checkb "range" true (List.for_all (fun v -> v >= 0 && v < 1000) s)

let test_wor_full_population () =
  let rng = Prng.create 3 in
  let s = Sample.without_replacement rng ~k:50 ~n:50 in
  Alcotest.check
    Alcotest.(list int)
    "whole population"
    (List.init 50 (fun i -> i))
    (List.sort Int.compare s)

let test_wor_errors () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "k > n"
    (Invalid_argument "Sample.without_replacement: k > n") (fun () ->
      ignore (Sample.without_replacement rng ~k:5 ~n:3))

let test_wor_uniform () =
  (* Every element should be selected with probability ~ k/n. *)
  let rng = Prng.create 9 in
  let counts = Array.make 20 0 in
  let trials = 4000 in
  for _ = 1 to trials do
    List.iter
      (fun v -> counts.(v) <- counts.(v) + 1)
      (Sample.without_replacement rng ~k:5 ~n:20)
  done;
  let expected = float_of_int trials *. 0.25 in
  Array.iter
    (fun c ->
      checkb "within 15% of uniform" true
        (Float.abs (float_of_int c -. expected) < 0.15 *. expected))
    counts

let test_from_excluding_sparse_and_dense () =
  let rng = Prng.create 4 in
  let excluded v = v mod 2 = 0 in
  (* sparse branch: k small relative to survivors *)
  let s = Sample.from_excluding rng ~k:10 ~n:1000 ~excluded ~excluded_count:500 in
  checki "sparse size" 10 (List.length s);
  checkb "sparse avoids" true (List.for_all (fun v -> v mod 2 = 1) s);
  (* dense branch: k close to the survivor count *)
  let s = Sample.from_excluding rng ~k:450 ~n:1000 ~excluded ~excluded_count:500 in
  checki "dense size" 450 (List.length s);
  checki "dense distinct" 450 (List.length (List.sort_uniq Int.compare s));
  checkb "dense avoids" true (List.for_all (fun v -> v mod 2 = 1) s)

let test_from_excluding_exhaustion () =
  let rng = Prng.create 4 in
  Alcotest.check_raises "too many requested"
    (Invalid_argument "Sample.from_excluding: not enough values remain")
    (fun () ->
      ignore
        (Sample.from_excluding rng ~k:501 ~n:1000
           ~excluded:(fun v -> v mod 2 = 0)
           ~excluded_count:500))

let test_shuffle_permutation () =
  let rng = Prng.create 5 in
  let a = Array.init 100 (fun i -> i) in
  Sample.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.check
    Alcotest.(array int)
    "still a permutation"
    (Array.init 100 (fun i -> i))
    sorted;
  checkb "actually shuffled" true (a <> Array.init 100 (fun i -> i))

let test_reservoir () =
  let rng = Prng.create 6 in
  let s = Sample.reservoir rng ~k:10 (Seq.init 100 (fun i -> i)) in
  checki "size" 10 (List.length s);
  checki "distinct" 10 (List.length (List.sort_uniq Int.compare s));
  let short = Sample.reservoir rng ~k:10 (Seq.init 3 (fun i -> i)) in
  checki "short sequence" 3 (List.length short);
  checki "k=0" 0 (List.length (Sample.reservoir rng ~k:0 (Seq.init 5 (fun i -> i))))

let test_bernoulli_extremes () =
  let rng = Prng.create 7 in
  for _ = 1 to 100 do
    checkb "p=1 always true" true (Sample.bernoulli rng ~p:1.0);
    checkb "p=0 always false" false (Sample.bernoulli rng ~p:0.0)
  done

let test_choose () =
  let rng = Prng.create 8 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 50 do
    checkb "member" true (Array.mem (Sample.choose rng a) a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Sample.choose: empty array")
    (fun () -> ignore (Sample.choose rng [||]))

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)

module Zipf = Taqp_rng.Zipf

let test_zipf_pmf_normalized () =
  let z = Zipf.create ~n:50 ~s:1.3 in
  let total = ref 0.0 in
  for k = 0 to 49 do
    total := !total +. Zipf.pmf z k
  done;
  checkf "sums to 1" 1.0 !total;
  checkb "monotone decreasing" true (Zipf.pmf z 0 > Zipf.pmf z 1);
  checki "n" 50 (Zipf.n z)

let test_zipf_uniform_special_case () =
  let z = Zipf.create ~n:10 ~s:0.0 in
  for k = 0 to 9 do
    checkf "uniform pmf" 0.1 (Zipf.pmf z k)
  done

let test_zipf_draw_distribution () =
  let z = Zipf.create ~n:20 ~s:1.0 in
  let rng = Prng.create 13 in
  let counts = Array.make 20 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let k = Zipf.draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 0 to 19 do
    let expected = float_of_int trials *. Zipf.pmf z k in
    checkb "within 5 sigma of pmf" true
      (Float.abs (float_of_int counts.(k) -. expected)
      < 5.0 *. sqrt (Float.max expected 1.0) +. 5.0)
  done

let test_zipf_errors () =
  Alcotest.check_raises "n <= 0" (Invalid_argument "Zipf.create: n <= 0")
    (fun () -> ignore (Zipf.create ~n:0 ~s:1.0));
  Alcotest.check_raises "negative s"
    (Invalid_argument "Zipf.create: negative exponent") (fun () ->
      ignore (Zipf.create ~n:5 ~s:(-1.0)));
  let z = Zipf.create ~n:5 ~s:1.0 in
  Alcotest.check_raises "pmf range" (Invalid_argument "Zipf.pmf: rank out of range")
    (fun () -> ignore (Zipf.pmf z 5))

let () =
  Alcotest.run "rng"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "split diverges" `Quick test_split_diverges;
          Alcotest.test_case "int errors" `Quick test_int_errors;
          Alcotest.test_case "pinned streams" `Quick test_pinned_streams;
          Alcotest.test_case "state round trips" `Quick test_state_round_trips;
          Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
          Alcotest.test_case "bool balance" `Quick test_bool_both;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "lognormal mean 1" `Quick test_lognormal_mean_one;
          QCheck_alcotest.to_alcotest prop_int_bounds;
          QCheck_alcotest.to_alcotest prop_float_bounds;
        ] );
      ( "sample",
        [
          Alcotest.test_case "without replacement distinct" `Quick test_wor_distinct;
          Alcotest.test_case "full population" `Quick test_wor_full_population;
          Alcotest.test_case "errors" `Quick test_wor_errors;
          Alcotest.test_case "uniformity" `Slow test_wor_uniform;
          Alcotest.test_case "from_excluding branches" `Quick
            test_from_excluding_sparse_and_dense;
          Alcotest.test_case "from_excluding exhaustion" `Quick
            test_from_excluding_exhaustion;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "reservoir" `Quick test_reservoir;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "choose" `Quick test_choose;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "pmf normalized" `Quick test_zipf_pmf_normalized;
          Alcotest.test_case "uniform special case" `Quick
            test_zipf_uniform_special_case;
          Alcotest.test_case "draw matches pmf" `Slow test_zipf_draw_distribution;
          Alcotest.test_case "errors" `Quick test_zipf_errors;
        ] );
    ]
