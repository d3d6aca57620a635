(* Serve benchmark: one workload, one seed, a fixed amount of work.

   hsqbench --workload W --seed N --seconds S --trace 0|1
            --hsq PATH --work DIR [--commit ID] [--report FILE]

   Untraced (--trace 0) it runs the workload's rounds (three or five),
   each against a fresh daemon with a fresh store, and prints the
   end-to-end metrics.
   Traced (--trace 1) it runs one untraced and one traced round,
   replays the traced round's request lines in process, and prints the
   per-layer metrics.  A round's timed phase
   sends a fixed number of requests per connection, [per_sec] times
   S / [rounds]; S never stops a loop early.  Every run ends with one
   JSON line; any oracle violation, failed request, unclean drain or
   exact count that differs between rounds makes it exit 1.  perfbench/
   README.md lists the metrics, their layers and what they should
   move. *)

module Json = Hsq_serve.Json
module Oracle = Hsq_workload.Oracle

let usage = "hsqbench --workload W --seed N --seconds S --trace 0|1 --hsq PATH --work DIR"
let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0
let hsq = ref "" and work = ref "" and commit = ref "unknown" and report = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W serve-read | serve-mixed | serve-sharded");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S sets the fixed request count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--hsq", Arg.Set_string hsq, "PATH the hsq executable");
      ("--work", Arg.Set_string work, "DIR scratch directory for stores and sockets");
      ("--commit", Arg.Set_string commit, "ID source revision, recorded in the report");
      ("--report", Arg.Set_string report, "FILE write every metric and the run context here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let sorted_pct a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median l = sorted_pct (Array.of_list l) 0.5

(* Latencies of the round's ok requests of one class, both connections. *)
let class_lat (r : Load.round) cls =
  List.concat_map
    (fun (d : Load.drive) ->
      List.filteri (fun i _ -> d.cls.(i) = cls && d.ok.(i)) (Array.to_list d.lat))
    [ r.a; r.b ]
  |> Array.of_list

(* A window is a run of consecutive completions of one phase, both
   connections merged in completion order.  The host's speed drifts by
   up to 2x over seconds, mostly as CPU time the hypervisor steals for
   other machines, so rates and medians are taken per window over the
   calm windows (by their share of stolen CPU time, see [calm]) and
   the run reports their median over all rounds: a slow spell of the
   host moves a few windows, not the median.  A window holds too few
   requests for a p99, which pools the calm windows. *)
type window = {
  dur : float;
  steal : float;  (** share of the host's CPU time stolen meanwhile *)
  reqs : (float * int * float * bool * int) array;  (** done_at, class, latency, ok, elements *)
}

(* Share of CPU time stolen between the samples enclosing [t0, t1]. *)
let steal_share samples t0 t1 =
  let n = Array.length samples in
  let time i = let t, _, _ = samples.(i) in t in
  let i0 = ref 0 and i1 = ref (n - 1) in
  Array.iteri (fun i _ -> if time i <= t0 then i0 := i) samples;
  for i = n - 1 downto 0 do
    if time i >= t1 then i1 := i
  done;
  let _, s0, c0 = samples.(!i0) and _, s1, c1 = samples.(!i1) in
  float_of_int (s1 - s0) /. float_of_int (max 1 (c1 - c0))

(* Equal windows of at least [size] completions (the whole phase if it
   is shorter). *)
let windows ~size ~steal (ds : Load.drive list) =
  let all =
    List.concat_map
      (fun (d : Load.drive) ->
        List.init (Array.length d.lat) (fun i -> (d.done_at.(i), d.cls.(i), d.lat.(i), d.ok.(i), d.elems.(i))))
      ds
    |> Array.of_list
  in
  Array.sort compare all;
  let n = Array.length all in
  let count = max 1 (n / size) in
  let at i = let t, _, _, _, _ = all.(i) in t in
  List.init count (fun k ->
      let lo = k * n / count and hi = (k + 1) * n / count in
      let t0 = if lo = 0 then 0.0 else at (lo - 1) and t1 = at (hi - 1) in
      { dur = t1 -. t0; steal = steal_share steal t0 t1; reqs = Array.sub all lo (hi - lo) })

(* The calm windows: those with at most [calm_steal] of the host's CPU
   time stolen, or, when the host was stolen from for most of the run,
   the calmer half.  A fixed median split would drop half of a quiet
   run's windows at random. *)
let calm_steal = 0.05

let calm ws =
  let m = Float.max calm_steal (median (List.map (fun w -> w.steal) ws)) in
  List.filter (fun w -> w.steal <= m) ws

let w_rate w = float_of_int (Array.fold_left (fun acc (_, _, _, ok, _) -> if ok then acc + 1 else acc) 0 w.reqs) /. w.dur
let w_elem_rate w = float_of_int (Array.fold_left (fun acc (_, _, _, ok, e) -> if ok then acc + e else acc) 0 w.reqs) /. w.dur

(* Percentile of the ok requests of one class over some windows, ms. *)
let pct cls q ws =
  List.concat_map (fun w -> List.filter_map (fun (_, c, l, ok, _) -> if c = cls && ok then Some l else None) (Array.to_list w.reqs)) ws
  |> Array.of_list
  |> fun a -> sorted_pct a q *. 1e3

(* A writer's window spans at least one rollover cycle (A's requests
   between two end_steps, plus B's meanwhile), so the median cannot
   leave the periodic end_step out; a read-only phase has no periodic
   work and takes short windows, which a brief stall of the host
   leaves mostly untouched. *)
let window_size (w : Spec.t) =
  if w.writer then w.rollover_every / Spec.observe_chunk * 5 * 2 else 500

(* Set-up's preload sends an end_step after every 195 observes
   (12500 / 64); a window of 800 spans four of them. *)
let preload_window = 800

let timed_ok (r : Load.round) = (List.assoc "timed" r.tallies : Load.tally).ok
let timed_sent (r : Load.round) = (List.assoc "timed" r.tallies : Load.tally).sent
let rps (r : Load.round) = float_of_int (timed_ok r) /. r.wall

(* Name, unit, value. *)
type metric = string * string * float

(* What a user of the daemon sees, measured by every run.  All of it
   is printed; the JSON line of an untraced run carries all but
   [ungated], which go with the per-layer metrics of a traced run. *)
let user_metrics (w : Spec.t) acked (rounds : Load.round list) : metric list =
  let timed =
    calm (List.concat_map (fun (r : Load.round) -> windows ~size:(window_size w) ~steal:r.steal [ r.a; r.b ]) rounds)
  in
  let ingest =
    if w.writer then timed
    else
      calm
        (List.concat_map
           (fun (r : Load.round) -> windows ~size:preload_window ~steal:r.preload_steal [ r.preload ])
           rounds)
  in
  let med ws f = median (List.map f ws) in
  let first = List.hd rounds in
  let sent, ok, _ = Load.totals (List.concat_map (fun (r : Load.round) -> r.tallies) rounds) in
  [
    ("setup_s", "s", median (List.map (fun (r : Load.round) -> r.setup_s) rounds));
    ("req_per_s", "req/s", med timed w_rate);
    ("quick_p50_ms", "ms", med timed (fun w -> pct Spec.cls_quick 0.5 [ w ]));
    ("quick_p99_ms", "ms", pct Spec.cls_quick 0.99 timed);
    ("accurate_p50_ms", "ms", med timed (fun w -> pct Spec.cls_accurate 0.5 [ w ]));
    ("accurate_p99_ms", "ms", pct Spec.cls_accurate 0.99 timed);
    ("ingest_p50_ms", "ms", med ingest (fun w -> pct Spec.cls_ingest 0.5 [ w ]));
    ("ingest_elems_per_s", "elem/s", med ingest w_elem_rate);
    ("ok_frac", "ratio", float_of_int ok /. float_of_int (max 1 sent));
    ("accurate_block_reads", "reads/query", first.block_reads);
    ("quick_rel_err", "ratio", first.quick_rel_err);
    ("accurate_rel_err", "ratio", first.accurate_rel_err);
    ("bytes_per_elem", "B/elem", float_of_int first.store_bytes /. float_of_int acked);
    ("peak_rss_mb", "MB", median (List.map (fun (r : Load.round) -> r.rss_mb) rounds));
  ]

(* Printed by every run but carried with the per-layer metrics, not
   gated.  The relative errors are exact for a seed, but a few small-phi
   answers dominate their mean and it moves by 20-40% from one seed to
   the next.  The latencies below sit on a queue or a host stall more
   than the gated ones do.  Over sets of five to ten runs of the same
   code on a shared 2-core host, the middle half of the p99s spread by
   up to 0.9 of their median, and serve-sharded's accurate p50 (a mix
   of probes that did and did not wait behind a 5 ms fan-out observe)
   and serve-read's ingest p50 (set-up's preload, a few seconds a
   round) by 0.27-0.28, past any bound a gate may have.  req_per_s and
   ingest_elems_per_s, which are gated, carry the accurate and ingest
   paths' cost. *)
let ungated =
  [ "quick_rel_err"; "accurate_rel_err"; "quick_p99_ms"; "accurate_p50_ms"; "accurate_p99_ms"; "ingest_p50_ms" ]

let per_layer acked ~(untraced : Load.round) ~(traced : Load.round) (rp : Replay.t) :
    metric list * string list =
  let notes = ref rp.notes in
  let delta name = Daemon.hist_diff (Daemon.hist traced.after name) (Daemon.hist traced.before name) in
  (* A daemon histogram over the timed phase, or over set-up when the
     timed phase never reached that layer. *)
  let timed_or_setup name label =
    let d = delta name in
    if d.count > 0 then d
    else begin
      notes := Printf.sprintf "%s: no samples in the timed phase, taken over set-up" label :: !notes;
      Daemon.hist traced.before name
    end
  in
  let gauge_delta name = Daemon.value traced.after name -. Daemon.value traced.before name in
  let total name = Daemon.value traced.after name in
  let sent = float_of_int (timed_sent traced) in
  let span name =
    let s = List.fold_left (fun acc (d : Load.drive) -> acc +. Option.value ~default:0.0 (List.assoc_opt name d.spans)) 0.0 [ traced.a; traced.b ] in
    s /. sent *. 1e6
  in
  let request = delta "hsq_serve_request_seconds" and wait = delta "hsq_serve_queue_wait_seconds" in
  let request_us = Daemon.hist_mean request *. 1e6 and wait_us = Daemon.hist_mean wait *. 1e6 in
  let sheds = List.length (List.filter (( = ) "overloaded") (traced.a.errors @ traced.b.errors)) in
  let acc_io = traced.a.acc_io @ traced.b.acc_io in
  let acked = float_of_int acked in
  let m =
    [
      ("serve.decode_us", "us", rp.decode_us);
      ("serve.encode_us", "us", rp.encode_us);
      ("serve.wire_us", "us", span "round_trip" -. request_us);
      ("serve.handoff_us", "us", request_us -. wait_us -. rp.exec_us);
      ("serve.queue_wait_p50_us", "us", Daemon.hist_quantile wait 0.5 *. 1e6);
      ("serve.queue_wait_p99_us", "us", Daemon.hist_quantile wait 0.99 *. 1e6);
      ("serve.shed_frac", "ratio", float_of_int sheds /. sent);
      ("engine.quick_hit_us", "us", rp.quick_hit_us);
      ("engine.quick_miss_us", "us", rp.quick_miss_us);
      ("engine.summary_miss_frac", "ratio", rp.summary_miss_frac);
      ("engine.extract_us", "us", rp.extract_us);
      ("sketch.tuples", "count", float_of_int rp.tuples);
      ("engine.accurate_us", "us", rp.accurate_us);
      ("engine.bisect_iters", "iters/query", rp.bisect_iters);
      ("sketch.insert_ns", "ns", rp.insert_ns);
      ("engine.observe_ns_per_elem", "ns", rp.observe_ns_per_elem);
      ("wal.appends_per_elem", "count", total "hsq_wal_appends_total" /. acked);
      ("wal.flushes_per_elem", "count", total "hsq_wal_syncs_total" /. acked);
      ("wal.append_us", "us", Daemon.hist_mean (timed_or_setup "hsq_wal_append_seconds" "wal.append_us") *. 1e6);
      ("wal.flush_us", "us", Daemon.hist_mean (timed_or_setup "hsq_wal_sync_seconds" "wal.flush_us") *. 1e6);
      ("hist.end_step_ms", "ms", rp.end_step_ms);
      ("hist.merge_ms", "ms", Daemon.hist_mean (timed_or_setup "hsq_hist_merge_seconds" "hist.merge_ms") *. 1e3);
      ("hist.merges", "count", float_of_int rp.merges);
      ("hist.partitions", "count", float_of_int rp.partitions);
      ( "storage.reads_per_accurate",
        "reads/query",
        float_of_int (List.fold_left ( + ) 0 acc_io) /. float_of_int (max 1 (List.length acc_io)) );
      ("storage.writes_per_elem", "count", total "hsq_io_writes_total" /. acked);
      ("storage.device_read_us", "us", Daemon.hist_mean (timed_or_setup "hsq_device_read_seconds" "storage.device_read_us") *. 1e6);
      ("shard.fused_quick_us", "us", rp.fused_quick_us);
      ("shard.fused_accurate_us", "us", rp.fused_accurate_us);
      ("shard.replica_writes_per_elem", "count", rp.replica_writes_per_elem);
      ("daemon.cpu_ms_per_kreq", "ms", traced.daemon_cpu_s *. 1e3 /. (sent /. 1e3));
      ("daemon.gc_major_words_per_req", "words", gauge_delta "hsq_gc_major_words" /. sent);
      ("daemon.minor_gcs_per_kreq", "count", gauge_delta "hsq_gc_minor_collections" /. (sent /. 1e3));
      ("loadgen.cpu_frac", "ratio", traced.gen_cpu_s /. traced.wall);
      ("loadgen.encode_us", "us", span "encode");
      ("loadgen.rtt_us", "us", span "round_trip");
      ("loadgen.decode_us", "us", span "decode");
      ("trace.overhead_frac", "ratio", (rps untraced -. rps traced) /. rps untraced);
    ]
  in
  (m, List.rev !notes)

(* Filesystem type of the store directory, from the longest matching
   mount point. *)
let fs_type dir =
  try
    In_channel.with_open_text "/proc/mounts" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | _ :: mnt :: ty :: _ when String.starts_with ~prefix:mnt dir -> Some (String.length mnt, ty)
           | _ -> None)
    |> List.fold_left (fun (bl, bt) (l, t) -> if l > bl then (l, t) else (bl, bt)) (0, "?")
    |> snd
  with Sys_error _ -> "?"

let json_metrics (ms : metric list) =
  Json.Obj (List.map (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) ms)

(* Full-precision rendering for the result line (Json.to_string keeps
   12 significant digits). *)
let result_line ~correct ~attempted ~failed (ms : metric list) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u) ms))

let main () =
  let w =
    match Spec.find !workload with
    | Some w -> w
    | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
  in
  if !hsq = "" || !work = "" || !seconds < 1 then raise (Arg.Bad usage);
  let traced_run = !trace = 1 in
  let requests = max 50 (w.per_sec * !seconds / w.rounds) in
  let inp = Spec.make w ~seed:!seed ~requests in
  let oracle = Oracle.create () in
  List.iter (Oracle.add_batch oracle) inp.history;
  Oracle.add_batch oracle inp.open_step;
  Array.iter (function Spec.Observe vs -> Oracle.add_batch oracle vs | _ -> ()) inp.script_a;
  let acked = Oracle.count oracle in
  Sys.chdir !work;
  let round i traced = Load.run ~hsq:!hsq ~dir:(Printf.sprintf "round%d" i) w inp oracle ~traced in
  let rounds = if traced_run then [ round 0 false; round 1 true ] else List.init w.rounds (fun i -> round i false) in
  let first = List.hd rounds in
  let exact_mismatch =
    List.filter_map
      (fun (name, f) ->
        if List.for_all (fun r -> f r = f first) rounds then None
        else Some (Printf.sprintf "exact metric %s differs between rounds" name))
      [
        ("accurate_block_reads", fun (r : Load.round) -> r.block_reads);
        ("quick_rel_err", fun r -> r.quick_rel_err);
        ("accurate_rel_err", fun r -> r.accurate_rel_err);
        ("bytes_per_elem", fun r -> float_of_int r.store_bytes);
      ]
  in
  let user = user_metrics w acked (if traced_run then [ first ] else rounds) in
  let gated, ungated = List.partition (fun (n, _, _) -> not (List.mem n ungated)) user in
  let layers, notes =
    if traced_run then begin
      let rp = Replay.run w inp ~seed:!seed ~dir:"replay" in
      let m, notes = per_layer acked ~untraced:first ~traced:(List.nth rounds 1) rp in
      (ungated @ m, notes)
    end
    else ([], [])
  in
  let failures =
    List.concat_map (fun (r : Load.round) -> r.violations @ List.map (fun e -> "request failed: " ^ e) (r.preload.errors @ r.a.errors @ r.b.errors)) rounds
    @ exact_mismatch
    @ List.filter_map
        (fun (n, _, v) -> if Float.is_finite v then None else Some (n ^ " is not finite"))
        (user @ layers)
  in
  let attempted, _, failed = Load.totals (List.concat_map (fun (r : Load.round) -> r.tallies) rounds) in
  let correct = failures = [] && failed = 0 in
  let gen_frac = List.map (fun (r : Load.round) -> r.gen_cpu_s /. r.wall) rounds in
  let saturated = List.exists (fun f -> f > 0.9) gen_frac in
  let store_dir = Sys.getcwd () in
  (* Human-readable report: context, per-phase tallies, metrics. *)
  Printf.printf "workload %s  seed %d  seconds %d  trace %d  nproc %d  commit %s\n" w.name !seed
    !seconds !trace (Domain.recommended_domain_count ()) !commit;
  Printf.printf "store %s (%s); --wal-sync always: one WAL flush per appended element\n" store_dir
    (fs_type store_dir);
  Printf.printf "closed loop, 2 connections, %d requests each per round, %d rounds\n" requests
    (List.length rounds);
  List.iteri
    (fun i (r : Load.round) ->
      Printf.printf
        "round %d: set-up %.3f s, timed %.3f s, generator cpu %.0f%%%s, daemon cpu %.3f s, host steal %.1f%%; %s\n" i
        r.setup_s r.wall
        (100.0 *. r.gen_cpu_s /. r.wall)
        (if r.gen_cpu_s /. r.wall > 0.9 then " (SATURATED)" else "")
        r.daemon_cpu_s (100.0 *. steal_share r.steal 0.0 r.wall)
        (String.concat ", "
           (List.map
              (fun (p, (t : Load.tally)) -> Printf.sprintf "%s %d sent/%d ok/%d failed" p t.sent t.ok t.failed)
              r.tallies)))
    rounds;
  Printf.printf "samples per round: quick %d, accurate %d, ingest %d%s\n"
    (Array.length (class_lat first Spec.cls_quick))
    (Array.length (class_lat first Spec.cls_accurate))
    (if w.writer then Array.length (class_lat first Spec.cls_ingest)
     else List.length (List.filter (( = ) Spec.cls_ingest) (Array.to_list first.preload.cls)))
    (if w.writer then "" else " (ingest_* from set-up's preload: the timed phase is read-only)");
  List.iter
    (fun (n, u, v) -> Printf.printf "  %-32s %14.6g %s\n" n v u)
    (if traced_run then gated @ layers else user);
  List.iter (fun n -> Printf.printf "note: %s\n" n) notes;
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) failures;
  if !report <> "" then begin
    let sizes =
      [
        ("acked_elements", Json.int acked);
        ("requests_per_connection", Json.int requests);
        ("script_a", Json.int (Array.length inp.script_a));
        ("script_b", Json.int (Array.length inp.script_b));
        ("rounds", Json.int (List.length rounds));
      ]
    in
    let context =
      [
        ("workload", Json.Str w.name);
        ("seed", Json.int !seed);
        ("nproc", Json.int (Domain.recommended_domain_count ()));
        ("commit", Json.Str !commit);
        ("generator_cpu_frac", Json.List (List.map (fun f -> Json.Num f) gen_frac));
        ("generator_saturated", Json.Bool saturated);
        ("daemon_cpu_s", Json.List (List.map (fun (r : Load.round) -> Json.Num r.daemon_cpu_s) rounds));
        ( "host_steal_frac",
          Json.List (List.map (fun (r : Load.round) -> Json.Num (steal_share r.steal 0.0 r.wall)) rounds) );
        ("store_fs", Json.Str (fs_type store_dir));
        ("wal_sync", Json.Str "always");
      ]
    in
    Out_channel.with_open_text !report (fun oc ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("correct", Json.Bool correct);
                  ("context", Json.Obj context);
                  ("sizes", Json.Obj sizes);
                  ("metrics", json_metrics (if traced_run then gated @ layers else user));
                  ("notes", Json.List (List.map (fun n -> Json.Str n) notes));
                  ("failures", Json.List (List.map (fun n -> Json.Str n) failures));
                ])))
  end;
  print_endline (result_line ~correct ~attempted ~failed (if traced_run then layers else gated));
  if not correct then exit 1

let () =
  at_exit Daemon.kill_all;
  match main () with
  | () -> ()
  | exception Arg.Bad msg ->
    prerr_endline msg;
    exit 2
  | exception e ->
    Printf.eprintf "hsqbench: %s\n" (Printexc.to_string e);
    exit 1
