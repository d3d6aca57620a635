(* Tests for the KLL sketch: the eps*n rank guarantee, exact min/max,
   lazy sweep-compactor invariants, and — the properties GK cannot
   offer — merge correctness: merge-vs-sequential-insert rank
   agreement, associativity and commutativity within the bound, and
   serialize/deserialize round-trip identity (including replayed coin
   flips).  Seed counts scale through HSQ_KLL_SEEDS like the other
   fuzz suites. *)

open Hsq_sketch

(* Seed counts scale through the environment: the PR-gating CI job runs
   the default, the nightly job cranks HSQ_KLL_SEEDS up to hundreds. *)
let seed_count default =
  match Sys.getenv_opt "HSQ_KLL_SEEDS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* Rank error of answering rank [r] with value [v] against the sorted
   ground truth: distance from r to [ |{x < v}| + 1, |{x <= v}| ]. *)
let rank_error sorted ~rank ~value =
  let upper = Hsq_util.Sorted.rank sorted value in
  let lower = min upper (Hsq_util.Sorted.rank_strict sorted value + 1) in
  if rank < lower then lower - rank else if rank > upper then rank - upper else 0

let max_error_over_all_ranks kll sorted =
  let n = Array.length sorted in
  let worst = ref 0 in
  let stride = max 1 (n / 2_000) in
  let r = ref 1 in
  while !r <= n do
    let v = Kll.query_rank kll !r in
    let e = rank_error sorted ~rank:!r ~value:v in
    if e > !worst then worst := e;
    r := !r + stride
  done;
  !worst

let feed ?(seed = 0) epsilon data =
  let kll = Kll.create ~seed ~epsilon () in
  Array.iter (Kll.insert kll) data;
  kll

let check_within_bound ?(what = "worst error") kll data =
  let sorted = Array.copy data in
  Array.sort compare sorted;
  let bound =
    int_of_float (ceil (Kll.error_bound kll *. float_of_int (Array.length data)))
  in
  let worst = max_error_over_all_ranks kll sorted in
  Alcotest.(check bool)
    (Printf.sprintf "%s %d <= bound %d (n=%d)" what worst bound (Array.length data))
    true (worst <= bound)

let check_error_bound ?seed ~epsilon data =
  check_within_bound (feed ?seed epsilon data) data

(* --- direct eps*n guarantees, mirroring the GK suite ----------------- *)

let test_random_stream () =
  let rng = Hsq_util.Xoshiro.create 1 in
  check_error_bound ~epsilon:0.02
    (Array.init 20_000 (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000))

let test_sorted_stream () = check_error_bound ~epsilon:0.02 (Array.init 20_000 (fun i -> i))

let test_reverse_sorted_stream () =
  check_error_bound ~epsilon:0.02 (Array.init 20_000 (fun i -> 20_000 - i))

let test_constant_stream () = check_error_bound ~epsilon:0.05 (Array.make 10_000 42)

let test_two_values () =
  check_error_bound ~epsilon:0.05 (Array.init 10_000 (fun i -> i mod 2))

let test_small_streams () =
  List.iter
    (fun n -> check_error_bound ~epsilon:0.1 (Array.init n (fun i -> (i * 7919) mod 101)))
    [ 1; 2; 3; 5; 10; 17 ]

let test_min_max_exact () =
  let rng = Hsq_util.Xoshiro.create 4 in
  let data = Array.init 5_000 (fun _ -> 10 + Hsq_util.Xoshiro.int rng 1_000_000) in
  let kll = feed 0.01 data in
  let sorted = Array.copy data in
  Array.sort compare sorted;
  Alcotest.(check int) "min exact" sorted.(0) (Kll.min_value kll);
  Alcotest.(check int) "max exact" sorted.(4_999) (Kll.max_value kll)

let test_empty_raises () =
  let kll = Kll.create ~epsilon:0.1 () in
  Alcotest.check_raises "query" (Invalid_argument "Kll.query_rank: empty sketch") (fun () ->
      ignore (Kll.query_rank kll 1));
  Alcotest.check_raises "min" (Invalid_argument "Kll.min_value: empty sketch") (fun () ->
      ignore (Kll.min_value kll));
  Alcotest.(check int) "rank_of on empty" 0 (Kll.rank_of kll 7)

let test_create_validation () =
  List.iter
    (fun eps ->
      Alcotest.check_raises
        (Printf.sprintf "epsilon %g" eps)
        (Invalid_argument "Kll.create: epsilon must lie in (0, 1)")
        (fun () -> ignore (Kll.create ~epsilon:eps ())))
    [ 0.0; 1.0; -0.5; 2.0 ]

let test_capped_budget () =
  let words = 400 in
  let kll = Kll.create_capped ~words () in
  let rng = Hsq_util.Xoshiro.create 9 in
  for _ = 1 to 50_000 do
    Kll.insert kll (Hsq_util.Xoshiro.int rng 1_000_000)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "memory %d within budget %d" (Kll.memory_words kll) words)
    true
    (Kll.memory_words kll <= words);
  Alcotest.(check (list string)) "invariants hold" [] (Kll.check_invariants kll)

let test_insert_sorted_batch_equiv () =
  let rng = Hsq_util.Xoshiro.create 12 in
  let a = Kll.create ~epsilon:0.02 () in
  let all = ref [] in
  for _ = 1 to 40 do
    let batch =
      Array.init (1 + Hsq_util.Xoshiro.int rng 700) (fun _ ->
          Hsq_util.Xoshiro.int rng 1_000_000)
    in
    Array.sort compare batch;
    Kll.insert_sorted_batch a batch;
    all := batch :: !all
  done;
  let data = Array.concat !all in
  Alcotest.(check int) "count" (Array.length data) (Kll.count a);
  check_within_bound ~what:"batched worst error" a data;
  Alcotest.(check (list string)) "invariants hold" [] (Kll.check_invariants a)

(* --- merge properties -------------------------------------------------- *)

let gen_stream rng len =
  let shape = Hsq_util.Xoshiro.int rng 4 in
  Array.init len (fun i ->
      match shape with
      | 0 -> Hsq_util.Xoshiro.int rng 1_000_000
      | 1 -> i (* sorted *)
      | 2 -> Hsq_util.Xoshiro.int rng 30 (* heavy duplicates *)
      | _ -> 1_000_000 - i)

let merged_bound kll n = int_of_float (ceil (Kll.error_bound kll *. float_of_int n))

let check_merged_within merged data what =
  let sorted = Array.copy data in
  Array.sort compare sorted;
  Alcotest.(check int) (what ^ " count") (Array.length data) (Kll.count merged);
  let worst = max_error_over_all_ranks merged sorted in
  let bound = merged_bound merged (Array.length data) in
  if worst > bound then
    Alcotest.failf "%s: worst rank error %d above bound %d (n=%d)" what worst bound
      (Array.length data);
  Alcotest.(check (list string)) (what ^ " invariants") [] (Kll.check_invariants merged)

let run_merge_seed seed =
  let rng = Hsq_util.Xoshiro.create (0x5eed + (seed * 7919)) in
  let eps = 0.01 +. (0.04 *. Hsq_util.Xoshiro.float rng) in
  let streams =
    List.init 3 (fun i ->
        gen_stream rng (100 + Hsq_util.Xoshiro.int rng (if i = 0 then 20_000 else 8_000)))
  in
  let sketches =
    List.mapi (fun i s -> feed ~seed:(seed + i) eps s) streams
  in
  let union = Array.concat streams in
  match (sketches, streams) with
  | [ a; b; c ], [ sa; sb; _ ] ->
    (* merge agrees with sequential insertion of the union *)
    let ab = Kll.merge a b in
    check_merged_within ab (Array.append sa sb) "merge(a,b)";
    (* commutativity within bound *)
    check_merged_within (Kll.merge b a) (Array.append sa sb) "merge(b,a)";
    (* associativity within bound *)
    check_merged_within (Kll.merge ab c) union "merge(merge(a,b),c)";
    check_merged_within (Kll.merge a (Kll.merge b c)) union "merge(a,merge(b,c))";
    (* inputs unchanged by merge *)
    check_merged_within a sa "input a after merges"
  | _ -> assert false

let merge_cases =
  List.init (seed_count 12) (fun i ->
      let seed = 2_000 + (i * 13) in
      Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (fun () -> run_merge_seed seed))

let test_merge_empty () =
  let a = feed 0.02 (Array.init 1_000 (fun i -> i)) in
  let e = Kll.create ~epsilon:0.02 () in
  check_merged_within (Kll.merge a e) (Array.init 1_000 (fun i -> i)) "merge with empty";
  check_merged_within (Kll.merge e a) (Array.init 1_000 (fun i -> i)) "empty merge"

(* --- serialize / deserialize ------------------------------------------- *)

(* Round-trip identity is behavioral, not just structural: the restored
   sketch must serialize identically, answer identically, and — because
   the coin seed and counter travel with it — keep answering
   identically after both copies ingest the same suffix. *)
let run_round_trip_seed seed =
  let rng = Hsq_util.Xoshiro.create (0xCAFE + (seed * 31)) in
  let eps = 0.01 +. (0.05 *. Hsq_util.Xoshiro.float rng) in
  let kll = Kll.create ~seed ~epsilon:eps () in
  let n = 50 + Hsq_util.Xoshiro.int rng 25_000 in
  for _ = 1 to n do
    Kll.insert kll (Hsq_util.Xoshiro.int rng 1_000_000)
  done;
  let image = Kll.serialize kll in
  let restored = Kll.deserialize image in
  Alcotest.(check (list string)) "restored invariants" [] (Kll.check_invariants restored);
  Alcotest.(check bool)
    "serialize . deserialize . serialize is the identity" true
    (Kll.serialize restored = image);
  Alcotest.(check int) "count" (Kll.count kll) (Kll.count restored);
  for _ = 1 to 50 do
    let r = 1 + Hsq_util.Xoshiro.int rng (Kll.count kll) in
    Alcotest.(check int)
      (Printf.sprintf "rank %d" r)
      (Kll.query_rank kll r) (Kll.query_rank restored r)
  done;
  (* identical suffix -> identical state: coin replay is exact *)
  let suffix =
    Array.init (100 + Hsq_util.Xoshiro.int rng 5_000) (fun _ ->
        Hsq_util.Xoshiro.int rng 1_000_000)
  in
  Array.iter (Kll.insert kll) suffix;
  Array.iter (Kll.insert restored) suffix;
  Alcotest.(check bool)
    "post-suffix serializations identical" true
    (Kll.serialize kll = Kll.serialize restored)

let round_trip_cases =
  List.init (seed_count 12) (fun i ->
      let seed = 4_000 + (i * 17) in
      Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (fun () ->
          run_round_trip_seed seed))

let test_copy_replays () =
  let kll = feed ~seed:3 0.02 (Array.init 5_000 (fun i -> (i * 31) mod 4_096)) in
  let dup = Kll.copy kll in
  let suffix = Array.init 2_000 (fun i -> (i * 17) mod 9_001) in
  Array.iter (Kll.insert kll) suffix;
  Array.iter (Kll.insert dup) suffix;
  Alcotest.(check bool) "copy replays the original" true (Kll.serialize kll = Kll.serialize dup)

(* Teeth: structural damage must be rejected, not absorbed. *)
let test_deserialize_rejects_damage () =
  let kll = feed ~seed:5 0.05 (Array.init 3_000 (fun i -> (i * 13) mod 50_000)) in
  let image = Kll.serialize kll in
  let mutate f =
    let d = Array.copy image in
    f d;
    d
  in
  let cases =
    [
      ("truncated", Array.sub image 0 (Array.length image - 3));
      ("bad epsilon", mutate (fun d -> d.(1) <- 0));
      ("negative count", mutate (fun d -> d.(3) <- -4));
      ("level count", mutate (fun d -> d.(8) <- 5_000));
      ("weight broken", mutate (fun d -> d.(3) <- d.(3) + 1));
      (* level 0 is wide at this epsilon, so forcing its first item up
         to the recorded maximum breaks ascending order *)
      ("unsorted level", mutate (fun d -> d.(9 + (4 * d.(8))) <- d.(7)));
      ("escaped envelope", mutate (fun d -> d.(Array.length d - 1) <- max_int));
    ]
  in
  List.iter
    (fun (name, damaged) ->
      match Kll.deserialize damaged with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: damaged image accepted" name)
    cases

(* --- qcheck properties ------------------------------------------------- *)

let qcheck_seed =
  QCheck.Gen.int_range 0 0x3FFFFFFF

let prop_insert_bound =
  QCheck.Test.make ~name:"kll stays within eps*n on random streams"
    ~count:(seed_count 15)
    (QCheck.make qcheck_seed)
    (fun seed ->
      let rng = Hsq_util.Xoshiro.create seed in
      let n = 10 + Hsq_util.Xoshiro.int rng 15_000 in
      let data = gen_stream rng n in
      let kll = feed ~seed 0.02 data in
      let sorted = Array.copy data in
      Array.sort compare sorted;
      max_error_over_all_ranks kll sorted
      <= int_of_float (ceil (Kll.error_bound kll *. float_of_int n))
      && Kll.check_invariants kll = [])

let prop_merge_weight =
  QCheck.Test.make ~name:"merge conserves count and invariants" ~count:(seed_count 15)
    (QCheck.make qcheck_seed)
    (fun seed ->
      let rng = Hsq_util.Xoshiro.create (seed lxor 0xBEEF) in
      let sa = gen_stream rng (1 + Hsq_util.Xoshiro.int rng 6_000) in
      let sb = gen_stream rng (1 + Hsq_util.Xoshiro.int rng 6_000) in
      let m = Kll.merge (feed ~seed 0.03 sa) (feed ~seed:(seed + 1) 0.03 sb) in
      Kll.count m = Array.length sa + Array.length sb && Kll.check_invariants m = [])

(* --- sorted-prefix levels vs a sort-based reference ---------------------

   Each level keeps a sorted prefix plus an arrival-order tail; queries
   sort tails in place and flatten by merging sorted levels.  The
   reference is a sort-based flatten: every stored (value, weight) pair,
   read off the serialized image, in one [Array.sort] by value, then
   running weights.  Equal values may land in any order there, which is
   why only answers are compared. *)

let reference_flatten kll =
  let image = Kll.serialize kll in
  let heights = image.(8) in
  let pairs = ref [] in
  let pos = ref (9 + (4 * heights)) in
  for h = 0 to heights - 1 do
    for _ = 1 to image.(9 + (4 * h)) do
      pairs := (image.(!pos), 1 lsl h) :: !pairs;
      incr pos
    done
  done;
  let pairs = Array.of_list !pairs in
  Array.sort (fun (a, _) (b, _) -> compare a b) pairs;
  let acc = ref 0 in
  let cum =
    Array.map
      (fun (_, w) ->
        acc := !acc + w;
        !acc)
      pairs
  in
  (Array.map fst pairs, cum)

let reference_query_rank (vals, cum) ~n r =
  let r = max 1 (min n r) in
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) >= r then hi := mid else lo := mid + 1
  done;
  vals.(!lo)

let reference_rank_of (vals, cum) v =
  let lo = ref 0 and hi = ref (Array.length vals) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if vals.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then 0 else cum.(!lo - 1)

(* A maker for a fixed or capped sketch, plus a random, sorted,
   duplicate-heavy or reverse-sorted stream (gen_stream's shapes). *)
let gen_sketch_case rng ~seed =
  let fresh =
    if Hsq_util.Xoshiro.int rng 2 = 0 then
      let eps = [| 0.01; 0.03; 0.1 |].(Hsq_util.Xoshiro.int rng 3) in
      fun () -> Kll.create ~seed ~epsilon:eps ()
    else
      let words = [| 64; 200; 1_000 |].(Hsq_util.Xoshiro.int rng 3) in
      fun () -> Kll.create_capped ~seed ~words ()
  in
  (fresh, gen_stream rng (1 + Hsq_util.Xoshiro.int rng 6_000))

(* Feed [data] into [probed] and [quiet] twins; [probed] answers queries
   (which sort its levels in place) at random points, [quiet] never. *)
let feed_twins rng ~probed ~quiet data =
  Array.iter
    (fun v ->
      Kll.insert probed v;
      Kll.insert quiet v;
      match Hsq_util.Xoshiro.int rng 64 with
      | 0 -> ignore (Kll.query_rank probed (1 + Hsq_util.Xoshiro.int rng (Kll.count probed)))
      | 1 -> ignore (Kll.rank_of probed v)
      | 2 -> Kll.sort_levels probed
      | 3 -> ignore (Kll.copy probed)
      | _ -> ())
    data

let prop_sorted_prefix_equiv =
  QCheck.Test.make ~name:"sorted-prefix levels answer like a sort-based flatten"
    ~count:(seed_count 20)
    (QCheck.make qcheck_seed)
    (fun seed ->
      let rng = Hsq_util.Xoshiro.create (seed lxor 0x5EED) in
      let fresh, data = gen_sketch_case rng ~seed in
      let probed = fresh () and quiet = fresh () in
      feed_twins rng ~probed ~quiet data;
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_reportf "seed %d: %s" seed s) fmt in
      if Kll.serialize probed <> Kll.serialize quiet then fail "queries changed the image";
      if Kll.check_invariants probed <> [] || Kll.check_invariants quiet <> [] then
        fail "invariants: %s" (String.concat "; " (Kll.check_invariants probed));
      let n = Kll.count quiet in
      let reference = reference_flatten quiet in
      let ranks = Array.init (n + 2) (fun i -> i) in
      let batch = Kll.query_ranks probed ranks in
      Array.iter
        (fun r ->
          let want = reference_query_rank reference ~n r in
          if Kll.query_rank probed r <> want then fail "query_rank %d" r;
          if batch.(r) <> want then fail "query_ranks at %d" r)
        ranks;
      Array.iter
        (fun v ->
          List.iter
            (fun v ->
              if Kll.rank_of probed v <> reference_rank_of reference v then fail "rank_of %d" v)
            [ v - 1; v; v + 1 ])
        data;
      (* Merging the probed twin (sorted in place) or the quiet one
         (unsorted tails) gives the same sketch, and leaves both inputs
         as they were. *)
      let other_fresh, other_data = gen_sketch_case rng ~seed:(seed + 1) in
      let other_probed = other_fresh () and other_quiet = other_fresh () in
      feed_twins rng ~probed:other_probed ~quiet:other_quiet other_data;
      let before = Kll.serialize quiet in
      let m_probed = Kll.merge probed other_probed in
      let m_quiet = Kll.merge quiet other_quiet in
      if Kll.serialize m_probed <> Kll.serialize m_quiet then fail "merge images differ";
      if Kll.serialize quiet <> before then fail "merge mutated its input";
      let reference = reference_flatten m_quiet in
      let n = Kll.count m_quiet in
      for r = 1 to n do
        if Kll.query_rank m_probed r <> reference_query_rank reference ~n r then
          fail "merged query_rank %d" r
      done;
      (* Future behaviour is the same too: same suffix, same image. *)
      Array.iter
        (fun v ->
          Kll.insert probed v;
          Kll.insert quiet v)
        other_data;
      Kll.serialize probed = Kll.serialize quiet)

(* The sorted-prefix bookkeeping through the public surface: random
   inserts leave an unsorted tail that check_invariants accepts, a copy
   leaves its original's tail alone, and sort_levels closes the tail
   without changing the image. *)
let test_sorted_prefix_invariants () =
  let kll = Kll.create ~seed:9 ~epsilon:0.05 () in
  Array.iter (Kll.insert kll) (Array.init 50 (fun i -> (i * 7919) mod 101));
  Alcotest.(check (list string)) "unsorted tail accepted" [] (Kll.check_invariants kll);
  let image = Kll.serialize kll in
  let wholly_sorted () =
    match Str.search_forward (Str.regexp_string "sorted 50/50") (Kll.dump kll) 0 with
    | _ -> true
    | exception Not_found -> false
  in
  Alcotest.(check bool) "tail pending" false (wholly_sorted ());
  ignore (Kll.copy kll);
  Alcotest.(check bool) "copy leaves the tail" false (wholly_sorted ());
  Kll.sort_levels kll;
  Alcotest.(check bool) "tail merged" true (wholly_sorted ());
  Alcotest.(check (list string)) "sorted levels" [] (Kll.check_invariants kll);
  Alcotest.(check bool) "image unchanged" true (Kll.serialize kll = image);
  let restored = Kll.deserialize image in
  Alcotest.(check string) "restored levels are wholly sorted" (Kll.dump kll) (Kll.dump restored)

let () =
  Alcotest.run "kll"
    [
      ( "bounds",
        [
          Alcotest.test_case "random stream" `Quick test_random_stream;
          Alcotest.test_case "sorted stream" `Quick test_sorted_stream;
          Alcotest.test_case "reverse sorted" `Quick test_reverse_sorted_stream;
          Alcotest.test_case "constant stream" `Quick test_constant_stream;
          Alcotest.test_case "two values" `Quick test_two_values;
          Alcotest.test_case "small streams" `Quick test_small_streams;
          Alcotest.test_case "min/max exact" `Quick test_min_max_exact;
          Alcotest.test_case "empty raises" `Quick test_empty_raises;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "capped budget" `Quick test_capped_budget;
          Alcotest.test_case "sorted batch equiv" `Quick test_insert_sorted_batch_equiv;
        ] );
      ("merge fuzz", Alcotest.test_case "merge empty" `Quick test_merge_empty :: merge_cases);
      ( "round trip",
        Alcotest.test_case "copy replays" `Quick test_copy_replays
        :: Alcotest.test_case "rejects damage" `Quick test_deserialize_rejects_damage
        :: round_trip_cases );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_insert_bound;
          QCheck_alcotest.to_alcotest prop_merge_weight;
        ] );
      ( "levels",
        [
          Alcotest.test_case "invariants and dump" `Quick test_sorted_prefix_invariants;
          QCheck_alcotest.to_alcotest prop_sorted_prefix_equiv;
        ] );
    ]
