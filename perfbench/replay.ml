(* In-process replay of a round's exact request lines through the
   public functions the daemon calls, with a timer around each call.

   The store is built like the daemon's (same config, durable, WAL
   policy always).  The two connections' lines are replayed in a fixed
   alternation (A, B, A, B, …), so every count taken here is exact and
   repeats to the digit for a seed.  On K = 1 the engine calls are
   timed on a plain engine, as the daemon runs them, and each query is
   timed again on a one-shard group (the shard.* numbers); on K > 1 the
   group calls are the engine path and both sets of numbers are the
   group's.  A quick query is a summary-cache miss iff a write
   (observe or end_step) came since the previous quick query — the
   (epoch, count) key the cache is built on changes exactly then. *)

module E = Hsq.Engine
module G = Hsq_shard.Shard_group
module Json = Hsq_serve.Json
module P = Hsq_serve.Protocol

type acc = {
  mutable n : int;
  mutable s : float;  (** seconds *)
}

let acc () = { n = 0; s = 0.0 }

let timed a ?(n = 1) f =
  let t0 = Load.now () in
  let r = f () in
  a.s <- a.s +. (Load.now () -. t0);
  a.n <- a.n + n;
  r

let per a scale = if a.n = 0 then 0.0 else a.s /. float_of_int a.n *. scale

let config (w : Spec.t) dir =
  Hsq.Config.make ~kappa:Spec.kappa ~block_size:Spec.block_size ~steps_hint:100 ~wal_dir:dir
    ~wal_sync:Hsq_storage.Wal.Always ~checkpoint_every:10_000 ~shards:w.shards
    ~replicas:w.replicas ~stream_sketch:w.sketch (Hsq.Config.Epsilon Spec.epsilon)

let rank_of_phi ~n p =
  let r = int_of_float (ceil (p *. float_of_int n)) in
  if r < 1 then 1 else if r > n then n else r

let interleave a b =
  List.init (max (Array.length a) (Array.length b)) (fun i ->
      (if i < Array.length a then [ a.(i) ] else []) @ if i < Array.length b then [ b.(i) ] else [])
  |> List.concat

(* Stream sketch insert cost on the workload's own values, outside any
   engine. *)
let insert_ns (w : Spec.t) ~seed =
  let values =
    Hsq_workload.Datasets.next_batch
      (Hsq_workload.Datasets.by_name ~seed:(seed + 1) w.dataset)
      131_072
  in
  let eps = Option.get (Hsq.Config.gk_epsilon (Hsq.Config.make (Hsq.Config.Epsilon Spec.epsilon))) in
  let sk = Hsq.Stream_sketch.create ~kind:w.sketch ~epsilon:eps () in
  let a = acc () in
  timed a ~n:(Array.length values) (fun () -> Array.iter (Hsq.Stream_sketch.insert sk) values);
  per a 1e9

type t = {
  decode_us : float;
  encode_us : float;
  exec_us : float;  (** engine-path time per replayed line *)
  quick_hit_us : float;
  quick_miss_us : float;
  summary_miss_frac : float;
  extract_us : float;
  tuples : int;
  accurate_us : float;
  bisect_iters : float;
  observe_ns_per_elem : float;
  end_step_ms : float;
  merges : int;
  partitions : int;
  fused_quick_us : float;
  fused_accurate_us : float;
  replica_writes_per_elem : float;
  insert_ns : float;
  notes : string list;
}

(* The store the daemon's engine thread drives: a plain engine on
   K = 1 (what `hsq serve` runs there), the group otherwise. *)
type path = {
  observe : int -> unit;
  end_step : unit -> int;  (** merges performed *)
  total : unit -> int;
  quick : rank:int -> int * float;
  accurate : rank:int -> int * int * float;  (** value, iterations, bound *)
  engines : unit -> E.t list;
  close : unit -> unit;
}

let engine_path e =
  {
    observe = E.observe e;
    end_step = (fun () -> (E.end_time_step e).Hsq_hist.Level_index.merges_performed);
    total = (fun () -> E.total_size e);
    quick = (fun ~rank -> E.quick_with_bound e ~rank);
    accurate =
      (fun ~rank ->
        let v, r = E.accurate e ~rank in
        (v, r.E.iterations, r.E.rank_error_bound));
    engines = (fun () -> [ e ]);
    close = (fun () -> E.close e);
  }

let group_path g =
  {
    observe = G.observe g;
    end_step =
      (fun () ->
        List.fold_left
          (fun acc (_, r) ->
            match r with
            | Ok rep -> acc + rep.Hsq_hist.Level_index.merges_performed
            | Error m -> failwith ("replay end_step: " ^ m))
          0 (G.end_time_step g));
    total = (fun () -> G.total_size g);
    quick =
      (fun ~rank ->
        let v, bound, _ = G.quick_with_bound g ~rank in
        (v, bound));
    accurate =
      (fun ~rank ->
        let v, r = G.accurate g ~rank in
        (v, r.G.iterations, r.G.rank_error_bound));
    engines = (fun () -> List.map snd (G.engines g));
    close = (fun () -> G.close g);
  }

let run (w : Spec.t) (inp : Spec.inputs) ~seed ~dir =
  Unix.mkdir dir 0o755;
  let g, _ = G.open_or_recover (config w (Filename.concat dir "group")) in
  let k1 = w.shards = 1 && w.replicas = 1 in
  (* On K = 1 the engine path gets its own store and the one-shard
     group a second one fed the same writes untimed, so neither sees
     block caches the other warmed. *)
  let p, mirror =
    if k1 then (engine_path (fst (E.open_or_recover (config w (Filename.concat dir "engine")))), Some (group_path g))
    else (group_path g, None)
  in
  let observe = acc () and step = acc () and merges = ref 0 in
  let write vs =
    timed observe ~n:(Array.length vs) (fun () -> Array.iter p.observe vs);
    Option.iter (fun m -> Array.iter m.observe vs) mirror
  in
  let end_step () =
    merges := !merges + timed step p.end_step;
    Option.iter (fun m -> ignore (m.end_step ())) mirror
  in
  List.iter
    (fun batch ->
      write batch;
      end_step ())
    inp.history;
  write inp.open_step;
  let preload_observe = per observe 1e9 and preload_step = per step 1e3 in
  List.iter
    (fun a ->
      a.n <- 0;
      a.s <- 0.0)
    [ observe; step ];
  let decode = acc () and encode = acc () in
  let hit = acc () and miss = acc () and extract = acc () in
  let accurate = acc () and fused_q = acc () and fused_a = acc () in
  let iters = ref 0 and dirty = ref false in
  let lines = interleave inp.script_a inp.script_b |> List.map (fun op -> Json.to_string (Spec.op_json op)) in
  List.iteri
    (fun i line ->
      let req =
        timed decode (fun () ->
            match Result.bind (Json.of_string line) P.parse with
            | Ok r -> r
            | Error e -> failwith ("replay parse: " ^ e))
      in
      let fields =
        match req with
        | P.Observe vs ->
          write vs;
          dirty := true;
          [ ("applied", Json.int (Array.length vs)) ]
        | P.End_step ->
          end_step ();
          dirty := true;
          [ ("step", Json.int (G.time_steps g)) ]
        | P.Quick { target = P.Phi phi; _ } ->
          let rank = rank_of_phi ~n:(p.total ()) phi in
          let v, bound = timed (if !dirty then miss else hit) (fun () -> p.quick ~rank) in
          dirty := false;
          Option.iter (fun m -> ignore (timed fused_q (fun () -> m.quick ~rank))) mirror;
          [ ("value", Json.int v); ("rank", Json.int rank); ("bound", Json.Num bound) ]
        | P.Accurate { target = P.Phi phi; _ } ->
          let rank = rank_of_phi ~n:(p.total ()) phi in
          let v, its, bound = timed accurate (fun () -> p.accurate ~rank) in
          iters := !iters + its;
          Option.iter (fun m -> ignore (timed fused_a (fun () -> m.accurate ~rank))) mirror;
          [ ("value", Json.int v); ("rank", Json.int rank); ("bound", Json.Num bound) ]
        | _ -> failwith ("replay: unexpected request " ^ line)
      in
      ignore (timed encode (fun () -> P.ok fields));
      if i mod 50 = 0 then List.iter (fun e -> ignore (timed extract (fun () -> E.stream_summary e))) (p.engines ()))
    lines;
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 (p.engines ()) in
  let tuples = sum (fun e -> Hsq.Stream_sketch.size (E.stream_sketch e)) in
  let partitions = sum (fun e -> Hsq_hist.Level_index.partition_count (E.hist e)) in
  let replica_elems =
    List.init w.shards (fun shard ->
        List.init w.replicas (fun replica ->
            match G.replica_engine g ~shard ~replica with Some e -> E.total_size e | None -> 0))
    |> List.concat |> List.fold_left ( + ) 0
  in
  let total = G.total_size g in
  p.close ();
  Option.iter (fun m -> m.close ()) mirror;
  let notes =
    (if observe.n = 0 then
       [ "engine.observe_ns_per_elem and hist.end_step_ms: the timed phase has no writes, so both come from the replayed set-up preload" ]
     else [])
    @
    if k1 then []
    else [ "engine.* query and observe timings are the Shard_group calls (K > 1), the same as shard.*" ]
  in
  (* On K > 1 the engine path is the group: its quick and accurate
     timings are the fused ones. *)
  let fused_q = if k1 then fused_q else { n = hit.n + miss.n; s = hit.s +. miss.s } in
  let fused_a = if k1 then fused_a else accurate in
  {
    decode_us = per decode 1e6;
    encode_us = per encode 1e6;
    exec_us =
      (observe.s +. step.s +. hit.s +. miss.s +. accurate.s) /. float_of_int (max 1 (List.length lines)) *. 1e6;
    quick_hit_us = per hit 1e6;
    quick_miss_us = per miss 1e6;
    summary_miss_frac = float_of_int miss.n /. float_of_int (max 1 (hit.n + miss.n));
    extract_us = per extract 1e6;
    tuples;
    accurate_us = per accurate 1e6;
    bisect_iters = float_of_int !iters /. float_of_int (max 1 accurate.n);
    observe_ns_per_elem = (if observe.n = 0 then preload_observe else per observe 1e9);
    end_step_ms = (if step.n = 0 then preload_step else per step 1e3);
    merges = !merges;
    partitions;
    fused_quick_us = per fused_q 1e6;
    fused_accurate_us = per fused_a 1e6;
    replica_writes_per_elem = float_of_int replica_elems /. float_of_int (max 1 total);
    insert_ns = insert_ns w ~seed;
    notes;
  }
