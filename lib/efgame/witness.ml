let unary n = String.make n 'a'

(* Wall-clock per-pair solve latency (full monotone chain, all rounds).
   Disabled this is one atomic load per pair; enabled it feeds the
   p50/p95/p99 the telemetry snapshots report. *)
let m_pair_ns = Obs.Metrics.timer "solve.pair_ns"

type engine = Cached of Cache.t | Parallel of Cache.t * int

type scan_outcome =
  | Found of int * int
  | Exhausted of int
  | Inconclusive of int * (int * int) list
  | Interrupted of int

type scan_stats = {
  pairs : int;
  nodes : int;
  chunks : int;
  cache_hits : int;
  cache_misses : int;
}

let engine_cache = function
  | None -> None
  | Some (Cached c | Parallel (c, _)) -> Some c

let engine_jobs = function
  | None | Some (Cached _) -> 1
  | Some (Parallel (_, j)) -> max 1 j

let verdict_of_result = function
  | Some true -> Game.Equiv
  | Some false -> Game.Not_equiv
  | None -> Game.Unknown

(* Decide [a^p ≡_k a^q] under the given engine, also reporting the number
   of search nodes expanded. Every pair, ε pairs included, goes to the
   arithmetic solver ({!Unary.solve}), with the engine's table if there is
   one: it refutes an ε root on the letter constant without a node or a
   table access, and never builds a word structure. Only a^0 vs a^0,
   which has no letter at all, takes the general solver. [store_depth]
   bounds the depth at which the shared table is touched (see
   {!Unary.solve}); it never affects verdicts. *)
let decide_pair_counted ?budget ?engine ~store_depth ~k p q =
  if p + q > 0 then
    let budget = Option.value budget ~default:50_000_000 in
    let r, nodes, _ =
      Unary.solve ?cache:(engine_cache engine) ~store_depth ~budget ~p ~q
        ~init:[] k
    in
    (verdict_of_result r, nodes)
  else
    let verdict, st = Game.decide_with_stats ?budget (Game.make "" "") k in
    (verdict, st.Game.nodes)

(* Monotonicity prefilter: Duplicator surviving k rounds survives any
   prefix of the play, so ≡_k ⊆ ≡_j for every j < k. Testing the cheap
   low-round games first refutes most pairs long before the k-round
   search runs; every skip is justified by an exact Not_equiv verdict,
   so exhaustive-scan claims remain sound. *)
let check_chain_counted ?budget ?engine ~k p q =
  let nodes = ref 0 in
  let decide k' =
    (* scans store top-level pair verdicts only: within a cold scan
       deeper entries are never re-reachable (keys embed the pair), and
       the pair verdicts are what a warm restart replays against *)
    let v, n = decide_pair_counted ?budget ?engine ~store_depth:0 ~k:k' p q in
    nodes := !nodes + n;
    v
  in
  let rec go j =
    if j >= k then decide k
    else
      match decide j with
      | Game.Not_equiv -> Game.Not_equiv
      | Game.Equiv -> go (j + 1)
      | Game.Unknown -> Game.Unknown
  in
  let v = go (min 1 k) in
  (v, !nodes)

let verify_pair ?budget ?engine ~k p q =
  fst (decide_pair_counted ?budget ?engine ~store_depth:max_int ~k p q)

let verify_pair_sound ?budget ?(width = 6) ~k p q =
  Game.equiv ~mode:(Game.Duplicator_limited width) ?budget (unary p) (unary q) k

(* The scan's work space is the (p, q) triangle linearized in (q, p)
   order: index t = q·(q−1)/2 + p for 0 ≤ p < q. Smaller index ⇔
   lexicographically earlier (q, p), so "minimal pair" = "minimal index
   among Equiv verdicts". *)
let index_of_pair p q = (q * (q - 1) / 2) + p

let pair_of_index t =
  let q =
    int_of_float ((1. +. sqrt (1. +. (8. *. float_of_int t))) /. 2.)
  in
  (* float sqrt is only a guess; settle on the exact row *)
  let q = ref q in
  while !q * (!q - 1) / 2 > t do
    decr q
  done;
  while (!q + 1) * !q / 2 <= t do
    incr q
  done;
  (t - (!q * (!q - 1) / 2), !q)

(* The cache key a scan's pair verdict lands under: the unary fast path
   ({!Unary.solve}) keys on lengths alone; ε pairs go through the general
   game, whose alphabet for a^0 vs a^q is the singleton ['a']. Exposed so
   an auditor can read a merged table's verdicts without a solver run. *)
let pair_key p q =
  if p >= 1 && q >= 1 then Position.unary_key ~p ~q []
  else Position.key ~sigma:[ 'a' ] ~left:(unary p) ~right:(unary q) []

let table_verdict cache ~k p q = Cache.lookup cache (pair_key p q) ~k

let rec atomic_cons a x =
  let c = Atomic.get a in
  if not (Atomic.compare_and_set a c (x :: c)) then atomic_cons a x

let rec atomic_max a v =
  let c = Atomic.get a in
  if v > c && not (Atomic.compare_and_set a c v) then atomic_max a v

let rec atomic_min a v =
  let c = Atomic.get a in
  if v < c && not (Atomic.compare_and_set a c v) then atomic_min a v

let cache_counters engine =
  match engine_cache engine with
  | None -> (0, 0)
  | Some c ->
      let s = Cache.stats c in
      (s.Cache.hits, s.Cache.misses)

let scan ?budget ?engine ?range ?on_q ?on_tick ?stop ~k ~max_n () =
  let total = max_n * (max_n + 1) / 2 in
  let lo, hi = match range with None -> (0, total) | Some (lo, hi) -> (lo, hi) in
  if lo < 0 || hi > total || lo > hi then
    invalid_arg
      (Printf.sprintf "Witness.scan: range [%d, %d) outside triangle [0, %d)"
         lo hi total);
  let jobs = engine_jobs engine in
  let sched = Scheduler.create ~jobs ~total:(hi - lo) () in
  let found_t = Atomic.make max_int in
  let unknowns = Atomic.make [] in
  let nodes = Atomic.make 0 in
  let q_started = Atomic.make 0 in
  let hits0, misses0 = cache_counters engine in
  (* the scheduler works in window-relative indices; [lo +] maps back
     into the triangle *)
  let eval r =
    let t = lo + r in
    let p, q = pair_of_index t in
    (match on_q with
    | Some f ->
        if q > Atomic.get q_started then begin
          atomic_max q_started q;
          f q
        end
    | None -> ());
    let v, n =
      Obs.Trace.with_span "pair"
        ~args:(fun () -> [ ("p", Obs.Trace.I p); ("q", Obs.Trace.I q) ])
        (fun () ->
          Obs.Metrics.time m_pair_ns (fun () ->
              check_chain_counted ?budget ?engine ~k p q))
    in
    ignore (Atomic.fetch_and_add nodes n);
    match v with
    | Game.Equiv ->
        atomic_min found_t t;
        (* indices above t can no longer be the minimal witness: cancel
           their chunks; everything below still completes, keeping the
           minimality claim sound *)
        Scheduler.shrink_limit sched r
    | Game.Not_equiv -> ()
    | Game.Unknown -> atomic_cons unknowns (p, q)
  in
  let tick =
    match on_tick with
    | None -> None
    | Some f -> Some (fun () -> f ~completed:(Scheduler.completed sched))
  in
  Scheduler.run ?tick ?stop sched eval;
  let hits1, misses1 = cache_counters engine in
  let stats =
    {
      pairs = Scheduler.completed sched;
      nodes = Atomic.get nodes;
      chunks = Scheduler.chunks sched;
      cache_hits = hits1 - hits0;
      cache_misses = misses1 - misses0;
    }
  in
  let outcome =
    (* a stopped scan makes no claim at all: completed pairs are in the
       table (if any), but neither minimality nor exhaustiveness holds *)
    if Scheduler.stopped sched then Interrupted stats.pairs
    else
      match Atomic.get found_t with
      | t when t < max_int ->
          let p, q = pair_of_index t in
          Found (p, q)
      | _ -> (
          match Atomic.get unknowns with
          | [] -> Exhausted max_n
          | us ->
              Inconclusive
                ( max_n,
                  List.sort (fun (p, q) (p', q') -> compare (q, p) (q', p')) us
                ))
  in
  (outcome, stats)

let minimal_pair ?budget ?engine ?on_q ~k ~max_n () =
  fst (scan ?budget ?engine ?on_q ~k ~max_n ())

(* ------------------------------------------------------------------ *)
(* Class decomposition: place each item against the current
   representative list. The representatives live in a growable array (the
   seed kept a list and appended with [@], quadratic in the class
   count); members are collected per-representative and reversed once at
   the end. *)

type 'a reps = { mutable arr : ('a * 'a list ref) array; mutable len : int }

let reps_make () = { arr = [||]; len = 0 }

let reps_push r x =
  let cell = (x, ref [ x ]) in
  if r.len = Array.length r.arr then begin
    let grown = Array.make (max 4 (2 * r.len)) cell in
    Array.blit r.arr 0 grown 0 r.len;
    r.arr <- grown
  end;
  r.arr.(r.len) <- cell;
  r.len <- r.len + 1

let reps_to_classes r =
  List.init r.len (fun i -> List.rev !(snd r.arr.(i)))

(* Place [x]: sequentially when [jobs = 1] (first Equiv in insertion
   order; an Unknown encountered before it aborts, exactly the seed
   semantics), else by fanning the comparisons against all current
   representatives through the scheduler. ≡_k is an equivalence, so at
   most one representative can answer Equiv — whichever comparison finds
   it cancels the rest. The parallel path is accordingly slightly more
   decisive than the sequential one: an exact Equiv places the item even
   if a comparison against an earlier representative ran out of budget. *)
let place ~jobs ~decide reps x =
  if reps.len = 0 then `New
  else if jobs = 1 then begin
    let rec go i =
      if i >= reps.len then `New
      else
        match decide (fst reps.arr.(i)) x with
        | Game.Equiv -> `Member i
        | Game.Not_equiv -> go (i + 1)
        | Game.Unknown -> `Unknown
    in
    go 0
  end
  else begin
    let sched = Scheduler.create ~jobs:(min jobs reps.len) ~total:reps.len () in
    let found = Atomic.make max_int in
    let unknown = Atomic.make false in
    Scheduler.run sched (fun i ->
        match decide (fst reps.arr.(i)) x with
        | Game.Equiv ->
            atomic_min found i;
            Scheduler.shrink_limit sched i
        | Game.Not_equiv -> ()
        | Game.Unknown -> Atomic.set unknown true);
    match Atomic.get found with
    | i when i < max_int -> `Member i
    | _ -> if Atomic.get unknown then `Unknown else `New
  end

let partition ~jobs ~decide items =
  let reps = reps_make () in
  let ok = ref true in
  List.iter
    (fun x ->
      if !ok then
        match place ~jobs ~decide reps x with
        | `Member i ->
            let _, members = reps.arr.(i) in
            members := x :: !members
        | `New -> reps_push reps x
        | `Unknown -> ok := false)
    items;
  if !ok then Some (reps_to_classes reps) else None

let classes ?budget ?engine ~k ~max_n () =
  partition ~jobs:(engine_jobs engine)
    ~decide:(fun rep n -> verify_pair ?budget ?engine ~k rep n)
    (List.init (max_n + 1) Fun.id)

let classes_words ?budget ?engine ~sigma ~k ~max_len () =
  let cache = engine_cache engine in
  partition ~jobs:(engine_jobs engine)
    ~decide:(fun rep w -> Game.equiv ?budget ?cache ~sigma rep w k)
    (Words.Word.enumerate ~alphabet:sigma ~max_len)
