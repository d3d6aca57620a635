(* The three serve workloads and the seeded inputs each round runs.

   Every input is a pure function of (workload, seed, requests): the
   history and open step that set-up preloads, the two connections'
   timed-phase scripts, the read-only warm-up, and the verification
   grid.  Class counts are fixed shares of [requests] and only the
   order and the values depend on the seed, so two seeds give
   different values but identical sizes.  Connection A is the only
   writer; its writes, and the end_step after every [rollover_every]
   acknowledged elements, sit at fixed positions in its script, so the
   final store is the same on every run of a seed whatever the two
   connections' interleaving. *)

type op =
  | Observe of int array
  | End_step
  | Quick of float
  | Accurate of float

type t = {
  name : string;
  dataset : string;  (** Hsq_workload.Datasets name *)
  hist_steps : int;  (** archived steps preloaded in set-up *)
  step_size : int;  (** elements per preloaded step *)
  open_elems : int;  (** elements of the open step preloaded in set-up *)
  shards : int;
  replicas : int;
  sketch : [ `Gk | `Kll ];
  writer : bool;  (** connection A writes during the timed phase *)
  per_sec : int;
      (** nominal requests per second per connection: a round's fixed
          request count per connection is [per_sec] times the round's
          share of --seconds, never a measured rate *)
  rounds : int;
      (** rounds of an untraced run, each against a fresh daemon; they
          share --seconds *)
  rollover_every : int;  (** acked elements between timed-phase end_steps *)
}

(* Partitions: a level holds at most κ = 10, so 32 steps leave 2 merged
   level-1 partitions plus 10 at level 0 — a dozen over two levels. *)
let serve_read =
  {
    name = "serve-read";
    dataset = "wikipedia";
    hist_steps = 32;
    step_size = 12_500;
    open_elems = 10_000;
    shards = 1;
    replicas = 1;
    sketch = `Gk;
    writer = false;
    per_sec = 3_000;
    (* Five set-ups, so that setup_s and the ingest numbers taken from
       the preload rest on five spells of the host, not three. *)
    rounds = 5;
    rollover_every = 0;
  }

(* 16 steps leave 1 + 5 partitions; the timed phase's rollovers push
   level 0 past κ, so every round runs at least one κ-merge. *)
let serve_mixed =
  {
    name = "serve-mixed";
    dataset = "uniform";
    hist_steps = 16;
    step_size = 8_000;
    open_elems = 5_000;
    shards = 1;
    replicas = 1;
    sketch = `Gk;
    writer = true;
    per_sec = 2_000;
    rounds = 3;
    rollover_every = 16_384;
  }

let serve_sharded =
  {
    serve_mixed with
    name = "serve-sharded";
    dataset = "normal";
    shards = 4;
    replicas = 2;
    sketch = `Kll;
    per_sec = 700;
  }

let all = [ serve_read; serve_mixed; serve_sharded ]
let find name = List.find_opt (fun w -> w.name = name) all
let epsilon = 0.01
let kappa = 10
let block_size = 256

(* Elements per observe, in set-up's preload and in the timed phase. *)
let observe_chunk = 64
let warmup_requests = 200

(* The verification grid: φ = 0.01, 0.02, …, 0.99. *)
let grid = Array.init 99 (fun i -> float_of_int (i + 1) /. 100.0)

type inputs = {
  history : int array list;
  open_step : int array;
  script_a : op array;
  script_b : op array;
  preload : op array;  (** [history] and [open_step] as set-up sends them *)
  warmup : op array;
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let phi rng = 0.01 +. Random.State.float rng 0.98

(* 80/20 quick/accurate, φ uniform in [0.01, 0.99]. *)
let reads rng n =
  let nq = n * 4 / 5 in
  let a = Array.init n (fun i -> if i < nq then Quick (phi rng) else Accurate (phi rng)) in
  shuffle rng a;
  a

(* 20/60/20 observe/quick/accurate, plus an end_step after every
   [rollover_every] acknowledged elements. *)
let writes w rng ds n =
  let n_obs = n / 5 and n_acc = n / 5 in
  let kinds = Array.init n (fun i -> if i < n_obs then 0 else if i < n - n_acc then 1 else 2) in
  shuffle rng kinds;
  let values = Hsq_workload.Datasets.next_batch ds (n_obs * observe_chunk) in
  let next = ref 0 in
  let ops =
    Array.to_list kinds
    |> List.concat_map (function
         | 0 ->
           let chunk = Array.sub values (!next * observe_chunk) observe_chunk in
           incr next;
           if !next * observe_chunk mod w.rollover_every = 0 then [ Observe chunk; End_step ]
           else [ Observe chunk ]
         | 1 -> [ Quick (phi rng) ]
         | _ -> [ Accurate (phi rng) ])
  in
  Array.of_list ops

let make w ~seed ~requests =
  let ds = Hsq_workload.Datasets.by_name ~seed w.dataset in
  let history = List.init w.hist_steps (fun _ -> Hsq_workload.Datasets.next_batch ds w.step_size) in
  let open_step = Hsq_workload.Datasets.next_batch ds w.open_elems in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let script_a = if w.writer then writes w rng ds requests else reads rng requests in
  let script_b = reads rng requests in
  let warmup = reads rng warmup_requests in
  let observes a =
    List.init ((Array.length a + observe_chunk - 1) / observe_chunk) (fun i ->
        Observe (Array.sub a (i * observe_chunk) (min observe_chunk (Array.length a - (i * observe_chunk)))))
  in
  let preload =
    Array.of_list (List.concat_map (fun step -> observes step @ [ End_step ]) history @ observes open_step)
  in
  { history; open_step; script_a; script_b; preload; warmup }

let op_json : op -> Hsq_serve.Json.t =
  let module J = Hsq_serve.Json in
  let op name fields = J.Obj (("op", J.Str name) :: fields) in
  function
  | Observe vs -> op "observe" [ ("values", J.List (Array.to_list (Array.map J.int vs))) ]
  | End_step -> op "end_step" []
  | Quick p -> op "quick" [ ("phi", J.Num p) ]
  | Accurate p -> op "accurate" [ ("phi", J.Num p) ]

(* Request classes, as the daemon's admission layer names them, plus
   end_step kept apart from the 64-element observes. *)
let cls_quick = 0
let cls_accurate = 1
let cls_ingest = 2
let cls_step = 3

let class_of = function
  | Quick _ -> cls_quick
  | Accurate _ -> cls_accurate
  | Observe _ -> cls_ingest
  | End_step -> cls_step
