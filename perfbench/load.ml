(* One round against a fresh daemon: set-up (spawn, preload over the
   wire, untimed warm-up), the timed closed-loop phase on two
   connections, a drain, then the quiet verification phase against the
   daemon restarted on the same store, and a last drain.

   Set-up, warm-up and verification run on one connection at a time;
   only the timed phase has both connections in flight.  The exact
   counts (block reads, relative errors, store bytes) are taken in the
   verification phase and after the drain, where no interleaving can
   move them. *)

module Json = Hsq_serve.Json
module Trace = Hsq_obs.Trace
module Oracle = Hsq_workload.Oracle

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Requests sent, answered ok, and failed (shed, timeout, error), per
   phase. *)
type tally = {
  mutable sent : int;
  mutable ok : int;
  mutable failed : int;
}

let tally () = { sent = 0; ok = 0; failed = 0 }
let phases = [ "setup"; "warmup"; "timed"; "verify" ]

let note t ok =
  t.sent <- t.sent + 1;
  if ok then t.ok <- t.ok + 1 else t.failed <- t.failed + 1

let count t r = note t (Daemon.is_ok r)

let totals tallies =
  List.fold_left
    (fun (s, o, f) (_, (t : tally)) -> (s + t.sent, o + t.ok, f + t.failed))
    (0, 0, 0) tallies

let call t c op =
  let r = Daemon.request c (Spec.op_json op) in
  count t r;
  r

(* What one connection saw in a closed loop over a script. *)
type drive = {
  lat : float array;  (** client round trip per request, seconds *)
  done_at : float array;  (** completion, seconds since the phase began *)
  cls : int array;
  elems : int array;  (** elements each request carried *)
  ok : bool array;
  errors : string list;  (** error kinds of failed requests *)
  acc_io : int list;  (** [io] of each accurate answer *)
  spans : (string * float) list;  (** summed span seconds by name, traced rounds *)
}

let span_sums tr =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun root ->
      List.iter
        (fun s ->
          let k = Trace.name s in
          Hashtbl.replace tbl k (Trace.duration_s s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)))
        (Trace.children root))
    (Trace.roots tr);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* A closed loop over a fixed script: send, wait for the reply, repeat.
   Traced, each request gets a root span with encode / round_trip /
   decode children, on a trace private to this connection's thread. *)
let drive c (ops : Spec.op array) ~traced ~start =
  let n = Array.length ops in
  let lat = Array.make n 0.0 and done_at = Array.make n 0.0 and ok = Array.make n false in
  let errors = ref [] and acc_io = ref [] in
  let tr = if traced then Some (Trace.create ()) else None in
  Array.iteri
    (fun i op ->
      let t0 = now () in
      let r =
        match tr with
        | None -> Daemon.request c (Spec.op_json op)
        | Some tr ->
          Trace.with_span tr "request" (fun root ->
              let line =
                Trace.with_child tr ~parent:root "encode" (fun _ ->
                    Json.to_string (Spec.op_json op) ^ "\n")
              in
              let resp = Trace.with_child tr ~parent:root "round_trip" (fun _ -> Daemon.round_trip c line) in
              match Trace.with_child tr ~parent:root "decode" (fun _ -> Json.of_string resp) with
              | Ok r -> r
              | Error e -> failwith ("unparseable response: " ^ e))
      in
      let t1 = now () in
      lat.(i) <- t1 -. t0;
      done_at.(i) <- t1 -. start;
      ok.(i) <- Daemon.is_ok r;
      if not ok.(i) then
        errors := Option.value ~default:"?" (Json.get_str r "error") :: !errors
      else
        match op with
        | Spec.Accurate _ -> acc_io := Option.value ~default:0 (Json.get_int r "io") :: !acc_io
        | _ -> ())
    ops;
  {
    lat;
    done_at;
    cls = Array.map Spec.class_of ops;
    elems = Array.map (function Spec.Observe vs -> Array.length vs | _ -> 0) ops;
    ok;
    errors = !errors;
    acc_io = !acc_io;
    spans = (match tr with Some tr -> span_sums tr | None -> []);
  }

let tally_drive t d = Array.iter (note t) d.ok

(* Host steal: (seconds since [start], stolen ticks, total ticks) of
   all CPUs, sampled every 20 ms while [f] runs. *)
let with_steal ~start f =
  let samples = ref [] and stop = Atomic.make false in
  let sample () =
    let s, t = Daemon.steal_ticks () in
    samples := (now () -. start, s, t) :: !samples
  in
  sample ();
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.02;
          sample ()
        done)
      ()
  in
  let r = f () in
  Atomic.set stop true;
  Thread.join th;
  sample ();
  (r, Array.of_list (List.rev !samples))

type round = {
  setup_s : float;
  preload : drive;  (** set-up's preload over the wire *)
  preload_steal : (float * int * int) array;
  steal : (float * int * int) array;  (** timed phase, see [with_steal] *)
  wall : float;  (** timed phase *)
  a : drive;
  b : drive;
  tallies : (string * tally) list;
  daemon_cpu_s : float;  (** timed phase *)
  gen_cpu_s : float;  (** timed phase *)
  before : Json.t;  (** metrics dump before the timed phase *)
  after : Json.t;  (** and after it *)
  quick_rel_err : float;
  accurate_rel_err : float;
  block_reads : float;
  violations : string list;  (** oracle, size and drain failures *)
  rss_mb : float;
  store_bytes : int;
}

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

(* Every grid answer must sit within its reply's own bound of the
   oracle built from all acknowledged elements. *)
let verify t c oracle =
  let violations = ref [] in
  let stats = Daemon.admin c "stats" in
  count t stats;
  (match Json.get_int stats "n" with
  | Some n when n = Oracle.count oracle -> ()
  | n ->
    violations :=
      Printf.sprintf "daemon holds %s elements, %d acknowledged"
        (Option.fold ~none:"?" ~some:string_of_int n) (Oracle.count oracle)
      :: !violations);
  let check kind phi r =
    match (Json.get_int r "value", Json.get_int r "rank", Json.get_float r "bound") with
    | Some value, Some rank, Some bound when Daemon.is_ok r ->
      let err = Oracle.rank_error oracle ~rank ~value in
      if float_of_int err > bound then
        violations :=
          Printf.sprintf "%s phi=%g: rank error %d > bound %g" kind phi err bound :: !violations;
      Oracle.relative_error oracle ~phi ~value
    | _ ->
      violations := Printf.sprintf "%s phi=%g: %s" kind phi (Json.to_string r) :: !violations;
      0.0
  in
  let quick = Array.map (fun phi -> check "quick" phi (call t c (Spec.Quick phi))) Spec.grid in
  let acc =
    Array.map
      (fun phi ->
        let r = call t c (Spec.Accurate phi) in
        (check "accurate" phi r, Option.value ~default:0 (Json.get_int r "io")))
      Spec.grid
  in
  ( mean (Array.to_list quick),
    mean (Array.to_list (Array.map fst acc)),
    mean (Array.to_list (Array.map (fun (_, io) -> float_of_int io) acc)),
    !violations )

let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let run ~hsq ~dir (w : Spec.t) (inp : Spec.inputs) oracle ~traced =
  let setup_t = tally () and warm_t = tally () and timed_t = tally () and verify_t = tally () in
  let t0 = now () in
  let d = Daemon.spawn ~hsq ~dir w in
  let a = Daemon.connect d.sock ~timeout_s:60.0 in
  let b = Daemon.connect d.sock ~timeout_s:60.0 in
  let p0 = now () in
  let preload, preload_steal = with_steal ~start:p0 (fun () -> drive a inp.preload ~traced:false ~start:p0) in
  tally_drive setup_t preload;
  Array.iter (fun op -> ignore (call warm_t a op)) inp.warmup;
  Array.iter (fun op -> ignore (call warm_t b op)) inp.warmup;
  let setup_s = now () -. t0 in
  let before = Daemon.metrics a in
  let dcpu0 = Daemon.cpu_s d.pid and gcpu0 = cpu_now () in
  let s0 = now () in
  let result = Array.make 2 None in
  let thread i c ops =
    Thread.create
      (fun () -> result.(i) <- Some (try Ok (drive c ops ~traced ~start:s0) with e -> Error e))
      ()
  in
  let (), steal =
    with_steal ~start:s0 (fun () ->
        let ta = thread 0 a inp.script_a and tb = thread 1 b inp.script_b in
        Thread.join ta;
        Thread.join tb)
  in
  let wall = now () -. s0 in
  let gen_cpu_s = cpu_now () -. gcpu0 and daemon_cpu_s = Daemon.cpu_s d.pid -. dcpu0 in
  let get i = match result.(i) with Some (Ok r) -> r | Some (Error e) -> raise e | None -> assert false in
  let ra = get 0 and rb = get 1 in
  tally_drive timed_t ra;
  tally_drive timed_t rb;
  let after = Daemon.metrics a in
  let rss_mb = Daemon.peak_rss_mb d.pid in
  let stop d c =
    let drained = Daemon.is_ok (Daemon.admin c "drain") in
    Daemon.close c;
    drained && Daemon.wait_exit d ~timeout_s:60.0
  in
  Daemon.close b;
  let clean = stop d a in
  (* Verify against a restarted daemon: the runs' one-block caches
     keep whatever the timed phase's interleaving probed last, which
     would move the block-read count; a reopened store has none. *)
  let d = Daemon.spawn ~hsq ~dir w in
  let c = Daemon.connect d.sock ~timeout_s:60.0 in
  let quick_rel_err, accurate_rel_err, block_reads, violations = verify verify_t c oracle in
  let clean = stop d c && clean in
  let violations =
    if clean then violations else "daemon did not drain cleanly" :: violations
  in
  let store_bytes = Daemon.dir_bytes (Filename.concat dir "store") in
  (* Dropping the store discards its dirty pages before the kernel's
     writeback can flush them under the next round. *)
  Daemon.rm_rf dir;
  {
    setup_s;
    preload;
    wall;
    a = ra;
    b = rb;
    tallies = List.combine phases [ setup_t; warm_t; timed_t; verify_t ];
    daemon_cpu_s;
    steal;
    preload_steal;
    gen_cpu_s;
    before;
    after;
    quick_rel_err;
    accurate_rel_err;
    block_reads;
    violations;
    rss_mb;
    store_bytes;
  }
