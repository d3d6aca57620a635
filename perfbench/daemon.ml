(* The `hsq serve` daemon as its own process, the wire connections the
   generator drives it through, and readers for what the daemon
   exposes: its metrics dump and /proc/<pid>.

   The daemon runs out of process on purpose: OCaml 5 systhreads of one
   domain share one runtime lock, so a generator inside the daemon's
   process would compete with its engine and connection threads and
   the benchmark would measure the scheduler. *)

module Json = Hsq_serve.Json

type t = {
  pid : int;
  sock : string;
  mutable running : bool;
}

let live : t list ref = ref []

(* Every class's deadline budget.  The defaults (250 ms for a quick
   query) are shorter than a stall of a shared host behind a sharded
   end_step, and a request answered "timeout" fails the run: the
   benchmark measures latency, not deadline shedding. *)
let budget_ms = 60_000.0

(* Paths are relative to the round's working directory: a Unix socket
   path is limited to ~108 bytes and the checkout may sit deep.  A
   second spawn on the same [dir] reopens (recovers) its store. *)
let spawn ~hsq ~dir (w : Spec.t) =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let store = Filename.concat dir "store" and sock = Filename.concat dir "d.sock" in
  let args =
    [ hsq; "serve"; "--socket"; sock; "--durable"; store; "--wal-sync"; "always" ]
    @ [ "--epsilon"; string_of_float Spec.epsilon; "--kappa"; string_of_int Spec.kappa ]
    @ [ "--block-size"; string_of_int Spec.block_size ]
    @ [ "--shards"; string_of_int w.shards; "--replicas"; string_of_int w.replicas ]
    @ [ "--sketch"; (match w.sketch with `Gk -> "gk" | `Kll -> "kll") ]
    @ List.concat_map
        (fun cls -> [ Printf.sprintf "--%s-budget-ms" cls; string_of_float budget_ms ])
        [ "quick"; "accurate"; "ingest"; "admin" ]
  in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid = Unix.create_process hsq (Array.of_list args) null log log in
  Unix.close log;
  Unix.close null;
  let d = { pid; sock; running = true } in
  live := d :: !live;
  d

let reap d =
  d.running <- false;
  live := List.filter (fun x -> x != d) !live

let kill d =
  if d.running then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    reap d
  end

let kill_all () = List.iter kill !live

(* Wait for the drained daemon to exit; [true] iff it exited 0 within
   [timeout_s] (otherwise it is killed). *)
let wait_exit d ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ WNOHANG ] d.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        kill d;
        false
      end
      else begin
        Unix.sleepf 0.01;
        go ()
      end
    | _, status ->
      reap d;
      status = Unix.WEXITED 0
  in
  go ()

(* --- /proc ------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of the process, seconds (fields 14 and 15 of stat,
   counted after the parenthesised command name). *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s after (String.length s - after))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

(* Host-wide (steal, total) CPU ticks from /proc/stat: time the
   hypervisor gave this machine's CPUs to someone else. *)
let steal_ticks () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))) with
  | "cpu" :: rest ->
    let f = List.filter_map int_of_string_opt rest in
    (List.nth f 7, List.fold_left ( + ) 0 f)
  | _ -> (0, 0)

let peak_rss_mb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
         | _ -> None)
  |> Option.value ~default:0.0

let rec dir_bytes path =
  match (Unix.lstat path).st_kind with
  | S_DIR ->
    Array.fold_left (fun acc e -> acc + dir_bytes (Filename.concat path e)) 0 (Sys.readdir path)
  | _ -> (Unix.lstat path).st_size

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

(* --- wire -------------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
}

let connect sock ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX sock) with
    | () -> { fd; ic = Unix.in_channel_of_descr fd }
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.01;
      go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let b = Bytes.unsafe_of_string line in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write c.fd b !off (len - !off)
  done

(* One request line out, one response line back (raises End_of_file
   when the daemon closes the connection). *)
let round_trip c line =
  send c line;
  input_line c.ic

let request c j =
  match Json.of_string (round_trip c (Json.to_string j ^ "\n")) with
  | Ok r -> r
  | Error e -> failwith ("unparseable response: " ^ e)

let is_ok r = Json.get_bool r "ok" = Some true
let admin c name = request c (Json.Obj [ ("op", Json.Str name) ])

(* --- metrics dump ------------------------------------------------------ *)

(* Every value stored under [name] anywhere in the dump: a single
   engine's registry is flat, a shard group nests one registry per
   shard and replica, so one walk covers both shapes. *)
let rec find name (j : Json.t) acc =
  match j with
  | Obj kvs ->
    List.fold_left
      (fun acc (k, v) -> find name v (if k = name then v :: acc else acc))
      acc kvs
  | List l -> List.fold_left (fun acc v -> find name v acc) acc l
  | _ -> acc

let metrics c =
  let r = admin c "metrics" in
  Option.value ~default:Json.Null (Json.member r "metrics")

(* Counter or gauge, summed over every registry that carries it. *)
let value dump name =
  List.fold_left (fun acc v -> acc +. Option.value ~default:0.0 (Json.as_float v)) 0.0 (find name dump [])

type hist = {
  count : int;
  sum : float;
  cum : (float * int) list;  (** (upper bound, cumulative count) *)
}

let hist dump name =
  let one v =
    let buckets =
      Option.value ~default:[] (Json.get_list v "buckets")
      |> List.map (fun b ->
             ( Option.value ~default:infinity (Json.get_float b "le"),
               Option.value ~default:0 (Json.get_int b "n") ))
    in
    {
      count = Option.value ~default:0 (Json.get_int v "count");
      sum = Option.value ~default:0.0 (Json.get_float v "sum");
      cum = buckets;
    }
  in
  let add a b =
    {
      count = a.count + b.count;
      sum = a.sum +. b.sum;
      cum =
        (if a.cum = [] then b.cum
         else List.map2 (fun (le, n) (_, m) -> (le, n + m)) a.cum b.cum);
    }
  in
  List.fold_left (fun acc v -> add acc (one v)) { count = 0; sum = 0.0; cum = [] } (find name dump [])

let hist_diff a b =
  {
    count = a.count - b.count;
    sum = a.sum -. b.sum;
    cum =
      (if b.cum = [] then a.cum else List.map2 (fun (le, n) (_, m) -> (le, n - m)) a.cum b.cum);
  }

let hist_mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

(* Quantile of a log-bucketed histogram, interpolated geometrically
   inside the bucket that holds it. *)
let hist_quantile h q =
  if h.count = 0 then 0.0
  else begin
    let target = q *. float_of_int h.count in
    let rec go lo prev = function
      | [] -> lo
      | (le, n) :: rest ->
        if float_of_int n >= target then
          if le = infinity || n = prev then lo
          else begin
            let lo = if lo <= 0.0 then le /. 2.0 else lo in
            let frac = (target -. float_of_int prev) /. float_of_int (n - prev) in
            lo *. ((le /. lo) ** frac)
          end
        else go le n rest
    in
    go 0.0 0 h.cum
  end
