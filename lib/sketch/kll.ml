(* KLL sketch (Karnin-Lang-Liberty, arXiv 1603.05346) with the lazy
   sweep-compactor update of Ivkin et al. (arXiv 1907.00236).

   Structure: a stack of levels; an item stored at level h stands for
   2^h original elements (its weight).  Capacities decay geometrically
   from the top of the stack (the newest level keeps the full k items,
   each level below keeps a c = 2/3 fraction of the one above, floored
   at k_min), so total space is ~3k items regardless of stream length.

   Laziness: inserts only append; nothing compacts until the total item
   count exceeds the total capacity.  Then the lowest over-full level
   compacts — and only enough pairs to fit again, not the whole buffer.
   Each compaction pass sweeps upward through value space from where
   the previous pass stopped (tracked by value, not index, so items
   arriving below the sweep point simply wait for the next round), with
   one random parity coin per sweep round deciding which element of
   each adjacent pair survives with doubled weight.

   Determinism: coins come from a Splitmix generator keyed on a stored
   seed and a flip counter, so (seed, coins) fully determine every
   future flip and both serialize; a restored sketch replays
   bit-identically.

   Exact minima and maxima are tracked outside the compactors (which
   may drop extremes) because the engine's stream summary pins its
   first and last entries to the true extremes. *)

let cap_decay = 2.0 /. 3.0
let k_min = 8

(* k = k_scale / epsilon.  The engine resets its stream sketch at every
   archived time step, so a sketch only ever summarizes one step's
   elements and compactions are rare; 3/eps keeps the realized rank
   error comfortably inside eps*n across the conformance grid. *)
let k_scale = 3.0

type level = {
  mutable buf : int array;
  mutable len : int;
  mutable sorted_len : int; (* buf.[0,sorted_len) sorted ascending; the rest in arrival order *)
  mutable sweep : int option; (* last value compacted this sweep round *)
  mutable coin : int; (* pair parity for the current sweep round *)
}

type mode = Fixed | Capped of int

type t = {
  mutable k : int;
  mutable epsilon : float;
  mode : mode;
  coin_seed : int;
  mutable coins : int;
  mutable n : int;
  mutable min_v : int;
  mutable max_v : int;
  mutable levels : level array;
  (* Flattened (values, cumulative weights) query view, invalidated on
     any mutation. *)
  mutable flat : (int array * int array) option;
}

let new_level () = { buf = [||]; len = 0; sorted_len = 0; sweep = None; coin = 0 }

let header_words = 9
let level_meta_words = 4

let create ?(seed = 0) ~epsilon () =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Kll.create: epsilon must lie in (0, 1)";
  {
    k = max k_min (int_of_float (ceil (k_scale /. epsilon)));
    epsilon;
    mode = Fixed;
    coin_seed = seed;
    coins = 0;
    n = 0;
    min_v = 0;
    max_v = 0;
    levels = [| new_level () |];
    flat = None;
  }

let create_capped ?(seed = 0) ~words () =
  let min_words = header_words + level_meta_words + (3 * k_min) in
  if words < min_words then
    invalid_arg (Printf.sprintf "Kll.create_capped: budget below %d words" min_words);
  (* Total capacity of the stack is ~k / (1 - c) = 3k items; leave a
     little slack for per-level metadata. *)
  let k = max k_min (((words - header_words) / 3) - level_meta_words) in
  {
    k;
    epsilon = k_scale /. float_of_int k;
    mode = Capped words;
    coin_seed = seed;
    coins = 0;
    n = 0;
    min_v = 0;
    max_v = 0;
    levels = [| new_level () |];
    flat = None;
  }

let count t = t.n
let epsilon t = t.epsilon
let error_bound t = t.epsilon

let size t = Array.fold_left (fun acc lv -> acc + lv.len) 0 t.levels

let memory_words t =
  header_words + (level_meta_words * Array.length t.levels) + size t

let num_levels t = Array.length t.levels

(* Capacity of level [h]: full k at the top, decaying by c per level of
   depth below it, floored at k_min. *)
let cap t h =
  let depth = num_levels t - 1 - h in
  max k_min (int_of_float (ceil (float_of_int t.k *. (cap_decay ** float_of_int depth))))

let total_cap t =
  let acc = ref 0 in
  for h = 0 to num_levels t - 1 do
    acc := !acc + cap t h
  done;
  !acc

let next_coin t =
  let mix = t.coin_seed lxor (t.coins * 0x2545F4914F6CDD1D) in
  t.coins <- t.coins + 1;
  Hsq_util.Splitmix.int (Hsq_util.Splitmix.create mix) 2

let invalidate t = t.flat <- None

let int_compare (a : int) b = compare a b

(* [Array.blit] and [Array.sub] copy a major-heap array element by
   element through the write barrier; on [int array]s a plain loop
   does the same copy without it.  Overlapping copies to the left are
   safe (the only in-place use). *)
let blit_ints (src : int array) src_pos (dst : int array) dst_pos len =
  for i = 0 to len - 1 do
    dst.(dst_pos + i) <- src.(src_pos + i)
  done

let sub_ints src pos len =
  let out = Array.make len 0 in
  blit_ints src pos out 0 len;
  out

(* Merge the sorted run src.(first), src.(first + step), ... ([count]
   items) into [dst.[0,dst_len)] (sorted, with room for the run behind
   it), back to front, one pass. *)
let merge_back ?(first = 0) ?(step = 1) (dst : int array) dst_len (src : int array) count =
  let i = ref (dst_len - 1) and j = ref (count - 1) in
  let pos = ref (dst_len + count - 1) in
  while !j >= 0 do
    let x = src.(first + (step * !j)) in
    if !i >= 0 && dst.(!i) > x then begin
      dst.(!pos) <- dst.(!i);
      decr i
    end
    else begin
      dst.(!pos) <- x;
      decr j
    end;
    decr pos
  done

(* The level's unsorted tail, sorted: the only part that needs a sort. *)
let sorted_tail lv =
  let tail = sub_ints lv.buf lv.sorted_len (lv.len - lv.sorted_len) in
  Array.sort int_compare tail;
  tail

(* Sort the level in place: sort the tail, merge it into the prefix.
   Unobservable from outside — every reader of a level's order (compact,
   merge, serialize, flatten) consumes it sorted anyway, and equal ints
   are indistinguishable, so the sorted image is the same whatever order
   the items arrived in. *)
let ensure_sorted lv =
  if lv.sorted_len < lv.len then begin
    let tail = sorted_tail lv in
    merge_back lv.buf lv.sorted_len tail (Array.length tail);
    lv.sorted_len <- lv.len
  end

let sort_levels t = Array.iter ensure_sorted t.levels

(* The level's items in order, in [0, len) of the result: the level's
   own buffer when wholly sorted, else a fresh array.  Never reorders
   the level, which keeps [merge] and [serialize] pure. *)
let sorted_view lv =
  if lv.sorted_len = lv.len then lv.buf
  else begin
    let tail = sorted_tail lv in
    let out = Array.make lv.len 0 in
    blit_ints lv.buf 0 out 0 lv.sorted_len;
    merge_back out lv.sorted_len tail (Array.length tail);
    out
  end

let reserve lv extra =
  let needed = lv.len + extra in
  if needed > Array.length lv.buf then begin
    let capacity = ref (max 16 (Array.length lv.buf)) in
    while !capacity < needed do
      capacity := 2 * !capacity
    done;
    let bigger = Array.make !capacity 0 in
    blit_ints lv.buf 0 bigger 0 lv.len;
    lv.buf <- bigger
  end

(* Merge a sorted run (read as [merge_back] reads it) into a level,
   leaving it wholly sorted. *)
let merge_run ?first ?step lv run count =
  if count > 0 then begin
    ensure_sorted lv;
    reserve lv count;
    merge_back ?first ?step lv.buf lv.len run count;
    lv.len <- lv.len + count;
    lv.sorted_len <- lv.len
  end

let add_level t = t.levels <- Array.append t.levels [| new_level () |]

(* One sweep-compaction pass over level [h]: resume at the remembered
   sweep value (or start a new round with a fresh coin), promote one
   survivor per adjacent pair — just enough pairs to bring the level
   back under capacity — and remember where the sweep stopped. *)
let compact t h =
  let lv = t.levels.(h) in
  ensure_sorted lv;
  let resume_at v =
    let lo = ref 0 and hi = ref lv.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if lv.buf.(mid) <= v then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let start =
    match lv.sweep with
    | None ->
      lv.coin <- next_coin t;
      0
    | Some v -> resume_at v
  in
  let start =
    if lv.len - start < 2 then begin
      (* The remaining tail is too short to pair: wrap to a new round. *)
      lv.sweep <- None;
      lv.coin <- next_coin t;
      0
    end
    else start
  in
  if lv.len - start >= 2 then begin
    if h + 1 >= num_levels t then add_level t;
    let over = lv.len - cap t h in
    let avail = (lv.len - start) / 2 in
    let pairs = max 1 (min avail over) in
    (* The survivors, every other item from start + coin, go up before
       their pairs are cut out. *)
    merge_run ~first:(start + lv.coin) ~step:2 t.levels.(h + 1) lv.buf pairs;
    lv.sweep <- Some lv.buf.(start + (2 * pairs) - 1);
    blit_ints lv.buf (start + (2 * pairs)) lv.buf start (lv.len - start - (2 * pairs));
    lv.len <- lv.len - (2 * pairs);
    lv.sorted_len <- lv.len
  end

let maybe_compress t =
  let continue = ref (size t > total_cap t) in
  while !continue do
    (* Lowest over-full level; one always exists while the total
       exceeds the sum of capacities. *)
    let target = ref (-1) in
    let h = ref 0 in
    while !target < 0 && !h < num_levels t do
      if t.levels.(!h).len > cap t !h then target := !h;
      incr h
    done;
    if !target < 0 then continue := false
    else begin
      compact t !target;
      continue := size t > total_cap t
    end
  done

(* Capped mode: if the stack outgrew the word budget (deeper levels add
   metadata and k_min floors), coarsen k — and with it the advertised
   epsilon — until compaction brings the footprint back inside.  Error
   already incurred was bounded by the finer epsilon, so the coarser
   advertised bound stays honest. *)
let enforce_budget t =
  match t.mode with
  | Fixed -> ()
  | Capped words ->
    while memory_words t > words && t.k > k_min do
      t.k <- max k_min (t.k * 3 / 4);
      t.epsilon <- k_scale /. float_of_int t.k;
      maybe_compress t
    done

let note_bounds t v =
  if t.n = 0 then begin
    t.min_v <- v;
    t.max_v <- v
  end
  else begin
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let insert t v =
  note_bounds t v;
  let lv = t.levels.(0) in
  reserve lv 1;
  (* An in-order arrival extends a wholly sorted level's prefix. *)
  let extends = lv.sorted_len = lv.len && (lv.len = 0 || v >= lv.buf.(lv.len - 1)) in
  lv.buf.(lv.len) <- v;
  lv.len <- lv.len + 1;
  if extends then lv.sorted_len <- lv.len;
  t.n <- t.n + 1;
  invalidate t;
  maybe_compress t;
  enforce_budget t

let insert_sorted_batch t b =
  let r = Array.length b in
  if r = 1 then insert t b.(0)
  else if r > 0 then begin
    note_bounds t b.(0);
    note_bounds t b.(r - 1);
    merge_run t.levels.(0) b r;
    t.n <- t.n + r;
    invalidate t;
    maybe_compress t;
    enforce_budget t
  end

(* The query view: every stored item in value order with the running
   weight.  The levels are sorted runs (sorted in place first), so the
   view is built by merging them in one at a time, back to front, into
   [vals] with each item's weight alongside in [cum]; a final pass turns
   the weights into running sums.  No pair array, no full sort.  The
   order this gives equal values cannot change [query_rank] or
   [rank_of], which read [cum] only at the end of a run of equal
   values. *)
let flatten t =
  match t.flat with
  | Some f -> f
  | None ->
    sort_levels t;
    let total = size t in
    let vals = Array.make total 0 and cum = Array.make total 0 in
    let filled = ref 0 in
    Array.iteri
      (fun h lv ->
        let w = 1 lsl h and buf = lv.buf in
        let i = ref (!filled - 1) and j = ref (lv.len - 1) in
        let pos = ref (!filled + lv.len - 1) in
        while !j >= 0 do
          if !i >= 0 && vals.(!i) > buf.(!j) then begin
            vals.(!pos) <- vals.(!i);
            cum.(!pos) <- cum.(!i);
            decr i
          end
          else begin
            vals.(!pos) <- buf.(!j);
            cum.(!pos) <- w;
            decr j
          end;
          decr pos
        done;
        filled := !filled + lv.len)
      t.levels;
    for i = 1 to total - 1 do
      cum.(i) <- cum.(i) + cum.(i - 1)
    done;
    t.flat <- Some (vals, cum);
    (vals, cum)

let query_rank t r =
  if t.n = 0 then invalid_arg "Kll.query_rank: empty sketch";
  let r = max 1 (min t.n r) in
  let vals, cum = flatten t in
  (* Smallest stored item whose cumulative weight reaches r. *)
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) >= r then hi := mid else lo := mid + 1
  done;
  vals.(!lo)

(* [query_rank] over a non-decreasing rank vector: the answering index
   only moves forward, so one cursor over [cum] serves every rank. *)
let query_ranks t ranks =
  if t.n = 0 then invalid_arg "Kll.query_ranks: empty sketch";
  let vals, cum = flatten t in
  let last = Array.length cum - 1 in
  let i = ref 0 in
  let out = Array.make (Array.length ranks) 0 in
  Array.iteri
    (fun k r ->
      if k > 0 && r < ranks.(k - 1) then
        invalid_arg "Kll.query_ranks: ranks must be non-decreasing";
      let r = max 1 (min t.n r) in
      while !i < last && cum.(!i) < r do
        incr i
      done;
      out.(k) <- vals.(!i))
    ranks;
  out

let rank_of t v =
  if t.n = 0 then 0
  else begin
    let vals, cum = flatten t in
    let len = Array.length vals in
    (* Largest index with vals.(i) <= v. *)
    let lo = ref 0 and hi = ref len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if vals.(mid) <= v then lo := mid + 1 else hi := mid
    done;
    if !lo = 0 then 0 else cum.(!lo - 1)
  end

let min_value t =
  if t.n = 0 then invalid_arg "Kll.min_value: empty sketch";
  t.min_v

let max_value t =
  if t.n = 0 then invalid_arg "Kll.max_value: empty sketch";
  t.max_v

let copy t =
  {
    t with
    levels =
      Array.map
        (fun lv -> { lv with buf = sub_ints lv.buf 0 lv.len })
        t.levels;
    flat = None;
  }

let merge a b =
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else begin
    let n = a.n + b.n in
    let epsilon =
      ((a.epsilon *. float_of_int a.n) +. (b.epsilon *. float_of_int b.n)) /. float_of_int n
    in
    let heights = max (num_levels a) (num_levels b) in
    (* Level h of the result: the two inputs' level-h items merged into
       one exactly sized buffer. *)
    let levels =
      Array.init heights (fun h ->
          let view side =
            if h < num_levels side then (sorted_view side.levels.(h), side.levels.(h).len)
            else ([||], 0)
          in
          let va, na = view a and vb, nb = view b in
          let buf = Array.make (na + nb) 0 in
          blit_ints va 0 buf 0 na;
          merge_back buf na vb nb;
          { (new_level ()) with buf; len = na + nb; sorted_len = na + nb })
    in
    let t =
      {
        k = max k_min (min a.k b.k);
        epsilon;
        mode = Fixed;
        coin_seed = a.coin_seed lxor (b.coin_seed * 0x9E3779B97F4A7C1) lxor 0x5DEECE66D;
        coins = 0;
        n;
        min_v = min a.min_v b.min_v;
        max_v = max a.max_v b.max_v;
        levels;
        flat = None;
      }
    in
    maybe_compress t;
    t
  end

let check_invariants t =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let weight = ref 0 in
  Array.iteri
    (fun h lv ->
      if lv.len < 0 then problem "level %d: negative length" h;
      weight := !weight + (lv.len * (1 lsl h));
      if lv.sorted_len < 0 || lv.sorted_len > lv.len then
        problem "level %d: sorted prefix %d outside [0, %d]" h lv.sorted_len lv.len
      else
        for i = 1 to lv.sorted_len - 1 do
          if lv.buf.(i - 1) > lv.buf.(i) then
            problem "level %d: sorted prefix but buf[%d] > buf[%d]" h (i - 1) i
        done;
      if t.n > 0 then
        for i = 0 to lv.len - 1 do
          if lv.buf.(i) < t.min_v || lv.buf.(i) > t.max_v then
            problem "level %d: item %d outside [min, max] envelope" h lv.buf.(i)
        done;
      match lv.coin with
      | 0 | 1 -> ()
      | c -> problem "level %d: coin %d not a parity" h c)
    t.levels;
  if !weight <> t.n then
    problem "weight conservation: stored weight %d <> count %d" !weight t.n;
  if size t > total_cap t then
    problem "capacity: %d items stored, %d allowed" (size t) (total_cap t);
  if t.n > 0 && t.min_v > t.max_v then problem "min > max";
  List.rev !problems

let serialize t =
  let heights = num_levels t in
  let views = Array.map sorted_view t.levels in
  let total = size t in
  let out = Array.make (header_words + (level_meta_words * heights) + total) 0 in
  out.(0) <- (match t.mode with Fixed -> 0 | Capped w -> w);
  out.(1) <- Int64.to_int (Int64.bits_of_float t.epsilon);
  out.(2) <- t.k;
  out.(3) <- t.n;
  out.(4) <- t.coin_seed;
  out.(5) <- t.coins;
  out.(6) <- t.min_v;
  out.(7) <- t.max_v;
  out.(8) <- heights;
  let pos = ref (header_words + (level_meta_words * heights)) in
  Array.iteri
    (fun h view ->
      let base = header_words + (level_meta_words * h) in
      let lv = t.levels.(h) in
      out.(base) <- lv.len;
      out.(base + 1) <- lv.coin;
      (match lv.sweep with
      | None -> ()
      | Some v ->
        out.(base + 2) <- 1;
        out.(base + 3) <- v);
      blit_ints view 0 out !pos lv.len;
      pos := !pos + lv.len)
    views;
  out

let deserialize data =
  let fail fmt = Printf.ksprintf invalid_arg ("Kll.deserialize: " ^^ fmt) in
  if Array.length data < header_words then fail "truncated header";
  let mode_word = data.(0) in
  if mode_word < 0 then fail "negative budget word";
  let mode = if mode_word = 0 then Fixed else Capped mode_word in
  let epsilon = Int64.float_of_bits (Int64.of_int data.(1)) in
  if not (epsilon > 0.0 && epsilon < 1.0) then fail "epsilon out of range";
  let k = data.(2) in
  if k < 1 then fail "k < 1";
  let n = data.(3) in
  if n < 0 then fail "negative count";
  let coin_seed = data.(4) in
  let coins = data.(5) in
  if coins < 0 then fail "negative coin counter";
  let min_v = data.(6) and max_v = data.(7) in
  if n > 0 && min_v > max_v then fail "min above max";
  let heights = data.(8) in
  if heights < 1 || heights > 62 then fail "implausible level count %d" heights;
  if Array.length data < header_words + (level_meta_words * heights) then
    fail "truncated level table";
  let total = ref 0 in
  for h = 0 to heights - 1 do
    let len = data.(header_words + (level_meta_words * h)) in
    if len < 0 then fail "level %d: negative length" h;
    total := !total + len
  done;
  if Array.length data <> header_words + (level_meta_words * heights) + !total then
    fail "length mismatch";
  let pos = ref (header_words + (level_meta_words * heights)) in
  let weight = ref 0 in
  let levels =
    Array.init heights (fun h ->
        let base = header_words + (level_meta_words * h) in
        let len = data.(base) in
        let coin = data.(base + 1) in
        if coin <> 0 && coin <> 1 then fail "level %d: coin not a parity" h;
        let sweep =
          match data.(base + 2) with
          | 0 -> None
          | 1 -> Some data.(base + 3)
          | _ -> fail "level %d: bad sweep flag" h
        in
        let buf = sub_ints data !pos len in
        pos := !pos + len;
        for i = 0 to len - 1 do
          if i > 0 && buf.(i - 1) > buf.(i) then fail "level %d: items not sorted" h;
          if n > 0 && (buf.(i) < min_v || buf.(i) > max_v) then
            fail "level %d: item outside min/max envelope" h
        done;
        weight := !weight + (len * (1 lsl h));
        { buf; len; sorted_len = len; sweep; coin })
  in
  if !weight <> n then fail "stored weight %d does not match count %d" !weight n;
  { k; epsilon; mode; coin_seed; coins; n; min_v; max_v; levels; flat = None }

let dump t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "KLL k=%d eps=%g n=%d size=%d levels=%d coins=%d\n" t.k t.epsilon t.n
       (size t) (num_levels t) t.coins);
  Array.iteri
    (fun h lv ->
      Buffer.add_string b
        (Printf.sprintf "  level %d (w=%d, cap=%d, sorted %d/%d%s): %d items\n" h (1 lsl h)
           (cap t h) lv.sorted_len lv.len
           (match lv.sweep with None -> "" | Some v -> Printf.sprintf ", sweep@%d" v)
           lv.len))
    t.levels;
  Buffer.contents b

let sketch : (module Quantile_sketch.S with type t = t) =
  (module struct
    type nonrec t = t

    let insert = insert
    let count = count
    let memory_words = memory_words
    let query_rank = query_rank
    let rank_of = rank_of
    let error_bound = error_bound
  end)
