(* Cache-consistency fuzz for the incrementally maintained union summary.

   The engine answers steady-state queries from a cached historical
   aggregate keyed on Level_index.epoch (DESIGN.md, "Query-path caching
   & parallel probes").  These tests drive randomized operation
   sequences — observe, end_time_step, expire, window queries (which
   build fresh summaries and must not disturb the cache), quick/accurate
   queries, and crash/recover cycles — and after every step assert that
   the cached union summary is entry-for-entry identical to one built
   from scratch, and that quick answers agree.

   Each sequence is deterministic in its seed; failures print the seed.
   Seed counts scale through HSQ_CRASH_SEEDS (same convention as
   test_crash_recovery): the PR-gating CI job runs the default, the
   nightly job cranks it up to hundreds. *)

module E = Hsq.Engine
module US = Hsq.Union_summary

let seed_count default =
  match Sys.getenv_opt "HSQ_CRASH_SEEDS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* Mixture of distributions so duplicates, skew, and wide ranges all
   occur within one run (same shape as test_fuzz). *)
let gen_value rng =
  match Hsq_util.Xoshiro.int rng 4 with
  | 0 -> Hsq_util.Xoshiro.int rng 20
  | 1 -> Hsq_util.Xoshiro.int rng 1_000_000
  | 2 -> 500_000 + Hsq_util.Xoshiro.int rng 100
  | _ -> 1 lsl (4 + Hsq_util.Xoshiro.int rng 20)

(* The invariant under test: the epoch-keyed cached summary must be
   entry-for-entry identical (values and exact L/U bounds) to a summary
   built fresh from the partition list, and quick answers must agree. *)
let check_cache ~seed ~ctx eng =
  let cached = E.union_summary eng in
  let fresh = E.fresh_union_summary eng in
  if not (US.equal cached fresh) then
    Alcotest.failf "seed %d: cached union summary diverged from fresh after %s (%d vs %d entries)"
      seed ctx (US.size cached) (US.size fresh);
  let n = E.total_size eng in
  if n > 0 then
    List.iter
      (fun phi ->
        let r = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
        let via_engine = E.quick eng ~rank:r in
        let via_fresh = US.quick_select fresh ~rank:r in
        if via_engine <> via_fresh then
          Alcotest.failf "seed %d: quick rank %d after %s: cached %d <> fresh %d" seed r ctx
            via_engine via_fresh)
      [ 0.01; 0.25; 0.5; 0.75; 0.99 ]

let observe_batch rng eng =
  let count = 1 + Hsq_util.Xoshiro.int rng 250 in
  for _ = 1 to count do
    E.observe eng (gen_value rng)
  done

let random_op rng eng =
  match Hsq_util.Xoshiro.int rng 10 with
  | 0 | 1 | 2 | 3 ->
    observe_batch rng eng;
    "observe"
  | 4 | 5 ->
    if E.stream_size eng > 0 then ignore (E.end_time_step eng);
    "end_time_step"
  | 6 ->
    if E.time_steps eng > 0 then
      ignore (E.expire eng ~keep_steps:(1 + Hsq_util.Xoshiro.int rng 8));
    "expire"
  | 7 -> (
    (* Window queries build fresh summaries over partition suffixes;
       they must leave the full-union cache untouched. *)
    match E.window_sizes eng with
    | [] -> "window (none)"
    | windows ->
      let w = List.nth windows (Hsq_util.Xoshiro.int rng (List.length windows)) in
      ignore (E.quantile_window eng ~window:w 0.5);
      "window query")
  | 8 ->
    if E.total_size eng > 0 then
      ignore (E.accurate eng ~rank:(1 + Hsq_util.Xoshiro.int rng (E.total_size eng)));
    "accurate query"
  | _ ->
    if E.total_size eng > 0 then ignore (E.quantile eng 0.5);
    "quantile"

let run_volatile_sequence ~seed ~ops =
  let rng = Hsq_util.Xoshiro.create seed in
  let kappa = 2 + Hsq_util.Xoshiro.int rng 6 in
  let config = Hsq.Config.make ~kappa ~block_size:16 (Hsq.Config.Epsilon 0.05) in
  let eng = E.create config in
  check_cache ~seed ~ctx:"create" eng;
  for _ = 1 to ops do
    let ctx = random_op rng eng in
    check_cache ~seed ~ctx eng
  done

let test_volatile_sequences () =
  for seed = 1 to seed_count 15 do
    run_volatile_sequence ~seed:(7000 + (seed * 13)) ~ops:40
  done

(* Crash/recover: drive a durable store, abandon the engine mid-flight
   (no close — the WAL under Always sync is the only survivor), reopen
   with open_or_recover, and require the recovered engine's cache to
   match a fresh build both immediately and through further mutations. *)
let with_store f =
  let dir = Filename.temp_file "hsq_qcache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let run_recovery_sequence ~seed =
  with_store (fun dir ->
      let rng = Hsq_util.Xoshiro.create seed in
      let config =
        Hsq.Config.make ~kappa:3 ~block_size:16 ~wal_dir:dir
          ~checkpoint_every:(64 * (1 + Hsq_util.Xoshiro.int rng 4))
          (Hsq.Config.Epsilon 0.05)
      in
      let eng, _ = E.open_or_recover config in
      let steps = 2 + Hsq_util.Xoshiro.int rng 6 in
      for _ = 1 to steps do
        observe_batch rng eng;
        if Hsq_util.Xoshiro.int rng 3 > 0 && E.stream_size eng > 0 then
          ignore (E.end_time_step eng)
      done;
      check_cache ~seed ~ctx:"pre-crash" eng;
      (* Simulated crash: the engine is abandoned without close. *)
      let recovered, _report = E.open_or_recover config in
      check_cache ~seed ~ctx:"open_or_recover" recovered;
      for _ = 1 to 10 do
        let ctx = random_op rng recovered in
        check_cache ~seed ~ctx:(ctx ^ " (post-recovery)") recovered
      done;
      E.close recovered)

let test_recovery_sequences () =
  for seed = 1 to seed_count 8 do
    run_recovery_sequence ~seed:(9000 + (seed * 29))
  done

(* Save / load_files round trip: a restored engine starts with a cold
   cache and an empty stream; its first cached build must equal fresh. *)
let test_save_load_cache () =
  let rng = Hsq_util.Xoshiro.create 31337 in
  let dev_path = Filename.temp_file "hsq_qcache" ".dev" in
  let meta_path = Filename.temp_file "hsq_qcache" ".meta" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove dev_path;
      Sys.remove meta_path)
    (fun () ->
      let config = Hsq.Config.make ~kappa:3 ~block_size:16 (Hsq.Config.Epsilon 0.05) in
      let dev = Hsq_storage.Block_device.create_file ~block_size:16 ~path:dev_path () in
      let eng = E.create ~device:dev config in
      for _ = 1 to 6 do
        observe_batch rng eng;
        ignore (E.end_time_step eng)
      done;
      check_cache ~seed:31337 ~ctx:"pre-save" eng;
      Hsq.Persist.save eng ~path:meta_path;
      Hsq_storage.Block_device.close dev;
      let restored = Hsq.Persist.load_files ~device_path:dev_path ~meta_path () in
      check_cache ~seed:31337 ~ctx:"load_files" restored;
      observe_batch rng restored;
      check_cache ~seed:31337 ~ctx:"observe after load" restored;
      ignore (E.end_time_step restored);
      check_cache ~seed:31337 ~ctx:"end_time_step after load" restored;
      Hsq_storage.Block_device.close (E.device restored))

(* Parallel probes are a latency knob only: answers at query_domains=4
   must be identical to the sequential default, probe for probe. *)
let test_parallel_answers_identical () =
  let build query_domains =
    let rng = Hsq_util.Xoshiro.create 555 in
    let config =
      Hsq.Config.make ~kappa:3 ~block_size:16 ?query_domains (Hsq.Config.Epsilon 0.05)
    in
    let eng = E.create config in
    for _ = 1 to 8 do
      observe_batch rng eng;
      ignore (E.end_time_step eng)
    done;
    observe_batch rng eng;
    eng
  in
  let seq = build None in
  let par = build (Some 4) in
  Alcotest.(check int) "same size" (E.total_size seq) (E.total_size par);
  let n = E.total_size seq in
  List.iter
    (fun phi ->
      let r = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
      let v_seq, rep_seq = E.accurate seq ~rank:r in
      let v_par, rep_par = E.accurate par ~rank:r in
      Alcotest.(check int) (Printf.sprintf "accurate value at rank %d" r) v_seq v_par;
      Alcotest.(check int)
        (Printf.sprintf "disk reads at rank %d" r)
        (Hsq_storage.Io_stats.total rep_seq.E.io)
        (Hsq_storage.Io_stats.total rep_par.E.io))
    [ 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ];
  E.close seq;
  E.close par

(* --- linear miss path vs per-rank / per-value references --------------

   A cache miss extracts SS with one cursor pass over the sketch
   ([Stream_sketch.query_ranks]) and merges it into TS reading each
   side's bounds at its merge cursor.  These properties pin both to the
   per-query code they replace: one [query_rank] per rank, and a
   record-per-entry build with a binary search per value and side. *)

module SS = Hsq.Stream_summary
module SK = Hsq.Stream_sketch
module PS = Hsq_hist.Partition_summary

let qcheck_seed = QCheck.make (QCheck.Gen.int_range 0 0x3FFFFFFF)

(* Random, sorted, reverse-sorted or duplicate-heavy values. *)
let gen_stream rng len =
  let shape = Hsq_util.Xoshiro.int rng 4 in
  Array.init len (fun i ->
      match shape with
      | 0 -> gen_value rng
      | 1 -> i * 3
      | 2 -> 1_000_000 - i
      | _ -> Hsq_util.Xoshiro.int rng 12)

let gen_sketch rng =
  let kind = if Hsq_util.Xoshiro.int rng 2 = 0 then `Gk else `Kll in
  let seed = Hsq_util.Xoshiro.int rng 1_000 in
  if Hsq_util.Xoshiro.int rng 2 = 0 then
    SK.create ~seed ~kind ~epsilon:[| 0.0025; 0.01; 0.0625 |].(Hsq_util.Xoshiro.int rng 3) ()
  else SK.create_capped ~seed ~kind ~words:[| 100; 400; 2_000 |].(Hsq_util.Xoshiro.int rng 3) ()

let per_rank sk r =
  match sk with SK.Gk g -> Hsq_sketch.Gk.query_rank g r | SK.Kll k -> Hsq_sketch.Kll.query_rank k r

let prop_query_ranks_per_rank =
  QCheck.Test.make ~name:"query_ranks equals per-rank query_rank" ~count:(seed_count 30)
    qcheck_seed (fun seed ->
      let rng = Hsq_util.Xoshiro.create seed in
      let sk = gen_sketch rng in
      Array.iter (SK.insert sk) (gen_stream rng (1 + Hsq_util.Xoshiro.int rng 8_000));
      let n = SK.count sk in
      (* Out-of-range ranks included: both paths clamp to [1, n]. *)
      let ranks =
        Array.init (1 + Hsq_util.Xoshiro.int rng 600) (fun _ ->
            Hsq_util.Xoshiro.int rng (n + 4) - 2)
      in
      Array.sort compare ranks;
      let got = SK.query_ranks sk ranks in
      Array.iteri
        (fun i r ->
          if got.(i) <> per_rank sk r then
            QCheck.Test.fail_reportf "seed %d (%s): rank %d -> %d, query_rank says %d" seed
              (SK.kind_label sk) r got.(i) (per_rank sk r))
        ranks;
      true)

let test_query_ranks_rejects_decreasing () =
  List.iter
    (fun kind ->
      let sk = SK.create ~kind ~epsilon:0.01 () in
      Array.iter (SK.insert sk) (Array.init 100 (fun i -> i));
      match SK.query_ranks sk [| 5; 4 |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: decreasing ranks accepted" (SK.kind_label sk))
    [ `Gk; `Kll ]

(* The reference TS: every distinct value of the partition and stream
   summaries, each with a binary search per partition and per stream. *)
let reference_build ~partitions ~streams =
  let summaries = List.map Hsq_hist.Partition.summary partitions in
  let hist_values ps = Array.to_list (Array.map (fun (e : PS.entry) -> e.value) (PS.entries ps)) in
  let values =
    List.sort_uniq compare
      (List.concat_map hist_values summaries
      @ List.concat_map (fun ss -> Array.to_list (SS.values ss)) streams)
  in
  List.map
    (fun v ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) ps ->
            let l, h = PS.rank_bounds ps v in
            (lo + l, hi + h))
          (0, 0) summaries
      in
      let slo = List.fold_left (fun acc ss -> acc +. SS.rank_lower ss v) 0.0 streams in
      let shi = List.fold_left (fun acc ss -> acc +. SS.rank_upper ss v) 0.0 streams in
      { US.value = v; lower = float_of_int lo +. slo; upper = float_of_int hi +. shi })
    values
  |> Array.of_list

(* Algorithms 5 and 7 and the rank window over the reference records,
   as linear scans. *)
let ref_first entries pred =
  let n = Array.length entries in
  let rec go i = if i >= n || pred entries.(i) then i else go (i + 1) in
  go 0

let ref_quick entries r =
  let j = ref_first entries (fun (e : US.entry) -> e.lower >= r) in
  entries.(min j (Array.length entries - 1)).value

let ref_filters entries r =
  let n = Array.length entries in
  let gt = ref_first entries (fun (e : US.entry) -> e.upper > r) in
  let u = if gt = 0 then entries.(0).value - 1 else entries.(gt - 1).value in
  let ge = ref_first entries (fun (e : US.entry) -> e.lower >= r) in
  let v = if ge = n then entries.(n - 1).value else entries.(ge).value in
  (u, max u v)

let ref_window entries ~n_total v =
  let n = Array.length entries in
  let ge = ref_first entries (fun (e : US.entry) -> e.value >= v) in
  let lower =
    if ge < n && entries.(ge).value = v then entries.(ge).lower
    else if ge = 0 then 0.0
    else entries.(ge - 1).lower
  in
  let upper = if ge = n then float_of_int n_total else entries.(ge).upper in
  (lower, upper)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_against_reference ~seed ~what ~partitions ~streams us =
  let fail fmt =
    Printf.ksprintf (fun s -> QCheck.Test.fail_reportf "seed %d, %s: %s" seed what s) fmt
  in
  let reference = reference_build ~partitions ~streams in
  let got = US.entries us in
  if Array.length got <> Array.length reference then
    fail "%d entries, reference has %d" (Array.length got) (Array.length reference);
  Array.iteri
    (fun i (e : US.entry) ->
      let r = reference.(i) in
      if not (e.value = r.value && same_bits e.lower r.lower && same_bits e.upper r.upper) then
        fail "entry %d: (%d, %h, %h) vs reference (%d, %h, %h)" i e.value e.lower e.upper r.value
          r.lower r.upper)
    got;
  let hist = List.fold_left (fun acc p -> acc + Hsq_hist.Partition.size p) 0 partitions in
  let m = List.fold_left (fun acc ss -> acc + SS.stream_size ss) 0 streams in
  if US.hist_elements us <> hist || US.m_stream us <> m || US.n_total us <> hist + m then
    fail "sizes";
  let n_total = US.n_total us in
  if US.size us > 0 then
    for k = 0 to 40 do
      let rank = k * (n_total + 1) / 40 in
      let r = float_of_int rank in
      if US.quick_select us ~rank <> ref_quick reference r then fail "quick_select %d" rank;
      if US.filters us ~rank <> ref_filters reference r then fail "filters %d" rank;
      (* entry values and their neighbours *)
      let v = reference.(k * (Array.length reference - 1) / 40).value + (k mod 3) - 1 in
      let lo, hi = US.rank_window us v and rlo, rhi = ref_window reference ~n_total v in
      if not (same_bits lo rlo && same_bits hi rhi) then fail "rank_window %d" v
    done

(* One engine with a random history (possibly none) and open stream
   (possibly empty), on either sketch kind. *)
let gen_engine rng =
  let kind = if Hsq_util.Xoshiro.int rng 2 = 0 then `Gk else `Kll in
  let config =
    Hsq.Config.make ~kappa:(2 + Hsq_util.Xoshiro.int rng 4) ~block_size:16 ~stream_sketch:kind
      (Hsq.Config.Epsilon 0.05)
  in
  let eng = E.create config in
  for _ = 1 to Hsq_util.Xoshiro.int rng 6 do
    Array.iter (E.observe eng) (gen_stream rng (1 + Hsq_util.Xoshiro.int rng 800));
    ignore (E.end_time_step eng)
  done;
  if Hsq_util.Xoshiro.int rng 4 > 0 then
    Array.iter (E.observe eng) (gen_stream rng (1 + Hsq_util.Xoshiro.int rng 3_000));
  eng

let prop_builds_match_reference =
  QCheck.Test.make ~name:"build_from_agg / build_fused equal the per-value reference"
    ~count:(seed_count 30) qcheck_seed (fun seed ->
      let rng = Hsq_util.Xoshiro.create seed in
      let engines = List.init (1 + Hsq_util.Xoshiro.int rng 4) (fun _ -> gen_engine rng) in
      let parts e = Hsq_hist.Level_index.active_partitions (E.hist e) in
      let partitions = List.concat_map parts engines in
      let streams = List.map E.stream_summary engines in
      let agg = US.hist_aggregate ~partitions in
      check_against_reference ~seed ~what:"build_fused" ~partitions ~streams
        (US.build_fused ~agg ~streams);
      let e0 = List.hd engines in
      let s0 = E.stream_summary e0 in
      check_against_reference ~seed ~what:"build_from_agg" ~partitions:(parts e0) ~streams:[ s0 ]
        (US.build ~partitions:(parts e0) ~stream:s0);
      List.iter E.close engines;
      true)

let () =
  Alcotest.run "query_cache"
    [
      ( "cache-consistency",
        [
          Alcotest.test_case "volatile fuzz sequences" `Quick test_volatile_sequences;
          Alcotest.test_case "crash/recover sequences" `Quick test_recovery_sequences;
          Alcotest.test_case "save/load round trip" `Quick test_save_load_cache;
          Alcotest.test_case "parallel answers identical" `Quick test_parallel_answers_identical;
        ] );
      ( "linear miss path",
        [
          QCheck_alcotest.to_alcotest prop_query_ranks_per_rank;
          Alcotest.test_case "query_ranks rejects decreasing ranks" `Quick
            test_query_ranks_rejects_decreasing;
          QCheck_alcotest.to_alcotest prop_builds_match_reference;
        ] );
    ]
