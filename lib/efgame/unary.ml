exception Unsat

(* Same metric names as [Packed] — the registry returns the shared
   instances, so unary fast-path nodes and general-solver nodes land in
   one "game.nodes_by_k" vector whose sum matches the scan totals. *)
let m_nodes = Obs.Metrics.vec ~buckets:8 "game.nodes_by_k"
let m_prune_dominated = Obs.Metrics.counter "game.prune.dominated"
let m_prune_forced = Obs.Metrics.counter "game.prune.forced"
let m_prune_unsat = Obs.Metrics.counter "game.prune.unsat"

let candidate_order ~mine_max ~other_max a =
  (* Replies that tend to survive, in order: identical (b = a), mirror
     (same distance from the right end), same distance shifted by half
     the length gap — the shift Duplicator's midpoint strategies use —
     and then by plain closeness. The order is a heuristic only; the
     scan below stays exhaustive. *)
  let g = other_max - mine_max in
  let h = g / 2 and h' = g - (g / 2) in
  let score b =
    if b = a then -1
    else
      let d = b - a in
      min
        (min (abs d) (abs (d - g)))
        (min (abs (d - h)) (abs (d - h')))
  in
  List.init (other_max + 1) (fun b -> (score b, b))
  |> List.sort compare |> List.map snd

(* Spoiler move order: refuting moves cluster at the top of the range
   (the whole-word and near-whole-word factors) and at the small end,
   so interleave the two directions. Order only — the loop is still
   exhaustive over [2..m]. *)
let move_order m =
  let out = ref [] in
  let hi = ref m and lo = ref 2 in
  while !hi >= !lo do
    out := !hi :: !out;
    if !lo < !hi then out := !lo :: !out;
    decr hi;
    incr lo
  done;
  List.rev !out

(* The candidate order depends only on (side, a) for a fixed instance:
   compute it once per move value and reuse across the whole search. *)
let candidate_table ~mine_max ~other_max =
  let tbl = Array.make (mine_max + 1) [] in
  let filled = Array.make (mine_max + 1) false in
  fun a ->
    if not filled.(a) then begin
      tbl.(a) <- candidate_order ~mine_max ~other_max a;
      filled.(a) <- true
    end;
    tbl.(a)

(* Partial-isomorphism extension check, arithmetic form, over the arena
   entries (the constants (0,0) and (1,1) plus the played pairs; order-
   free). [(na, nb)] is the candidate new pair. Mirrors
   Partial_iso.extension_ok: equality patterns, plus every concatenation
   triple involving the new entry — which over a single letter collapse
   to the additive equations below (u·v and v·u have equal length,
   halving the triple cases). The columns are fetched once and read
   unsafely: no push happens inside, and every index is < len. (Without
   flambda each [Arena.fst_at] is a real call, and these loops are the
   scan's inner core.) *)
let ext_ok ar na nb =
  let len = Arena.len ar in
  let xs = Arena.col_a ar and ys = Arena.col_b ar in
  let rec eq i =
    i >= len
    || (na = Array.unsafe_get xs i) = (nb = Array.unsafe_get ys i)
       && eq (i + 1)
  and outer i =
    i >= len
    ||
    let x = Array.unsafe_get xs i and y = Array.unsafe_get ys i in
    (x = na + na) = (y = nb + nb)
    && inner x y 0
    && outer (i + 1)
  and inner x y j =
    j >= len
    ||
    let u = Array.unsafe_get xs j and v = Array.unsafe_get ys j in
    (na = x + u) = (nb = y + v)
    && (x = na + u) = (y = nb + v)
    && inner x y (j + 1)
  in
  eq 0 && outer 0

(* Forced Duplicator replies, oriented by [swap] (false: Spoiler moved on
   the left). If the move [a] satisfies an additive pattern with known
   entries, triple-consistency forces the reply:
     a = x + u   ⇒  b = y + v
     x = a + u   ⇒  b = y - v
     x = a + a   ⇒  b = y / 2
   Conflicting or out-of-range forcings mean no reply preserves the
   partial isomorphism at all. Returns the forced reply or -1
   (unconstrained); raises [Unsat] when the move refutes the position. *)
let forced_reply ar ~swap ~other_max a =
  let len = Arena.len ar in
  let l = Arena.col_a ar and r = Arena.col_b ar in
  (* orientation = exchanging the columns, hoisted out of the loops *)
  let xs = if swap then r else l and ys = if swap then l else r in
  let forced = ref (-1) in
  let force v =
    if v < 0 || v > other_max then raise Unsat
    else if !forced = -1 then forced := v
    else if !forced <> v then raise Unsat
  in
  for i = 0 to len - 1 do
    let x = Array.unsafe_get xs i and y = Array.unsafe_get ys i in
    if x = a + a then
      if y land 1 = 1 then raise Unsat else force (y asr 1);
    for j = 0 to len - 1 do
      let u = Array.unsafe_get xs j and v = Array.unsafe_get ys j in
      if x + u = a then force (y + v);
      if x = a + u then force (y - v)
    done
  done;
  !forced

(* Additive closure of one arena column (the [swap]-oriented "mine"
   side), clipped to [2..max_v]: values x + u, x - u, x / 2 over the
   column's entries, deduplicated into [buf]. Returns the count. Because
   (0, 0) and (1, 1) are always entries, the closure contains every
   played coordinate and its ±1 neighbours. A Spoiler move outside the
   closure fires no pattern of [ext_ok], so it is exactly the closure
   moves that can be forced or refuted. Order is irrelevant (the caller
   folds a conjunction over the values). *)
let closure ar ~swap ~max_v buf =
  let len = Arena.len ar in
  let l = Arena.col_a ar and r = Arena.col_b ar in
  let xs = if swap then r else l in
  let n = ref 0 in
  let add v =
    if v >= 2 && v <= max_v then begin
      let dup = ref false in
      for i = 0 to !n - 1 do
        if buf.(i) = v then dup := true
      done;
      if not !dup then begin
        buf.(!n) <- v;
        incr n
      end
    end
  in
  for i = 0 to len - 1 do
    let x = Array.unsafe_get xs i in
    if x land 1 = 0 then add (x asr 1);
    for j = 0 to len - 1 do
      add (x + Array.unsafe_get xs j);
      add (x - Array.unsafe_get xs j)
    done
  done;
  !n

(* Exact closed form for the 1-round game. A closure move's reply is
   pinned down by [forced_reply] (or refuted outright); a generic move
   [a] — one outside the closure — fires no pattern, and neither does a
   generic reply [b], so [ext_ok ar a b] holds for any such pair (every
   pattern equivalence is false on both sides). Conversely a generic [a]
   paired with a closure [b] fails: some pattern fires on the reply side
   only. Hence Duplicator survives a generic move iff a generic reply
   value exists, i.e. iff the reply-side closure does not cover all of
   [2..other_max]. This is the leaf of every unary search, so it carries
   most of a scan's work; there is no node or metric accounting
   inside. *)
let w1 (s : Packed.scratch) ar ~p ~q =
  let len = Arena.len ar in
  Packed.ensure_w1buf s (len * ((2 * len) + 1));
  let buf = s.w1buf in
  let side ~swap ~mine_max ~other_max =
    let cs_n = closure ar ~swap ~max_v:mine_max buf in
    let ok = ref true in
    for ci = 0 to cs_n - 1 do
      if !ok then
        let a = buf.(ci) in
        match forced_reply ar ~swap ~other_max a with
        | exception Unsat -> ok := false
        | -1 ->
            (* unreachable for closure moves; kept for exactness *)
            let rec scan b =
              b <= other_max
              && ((if swap then ext_ok ar b a else ext_ok ar a b)
                 || scan (b + 1))
            in
            if not (scan 0) then ok := false
        | b ->
            if not (if swap then ext_ok ar b a else ext_ok ar a b) then
              ok := false
    done;
    !ok
    &&
    (* generic moves exist iff the closure misses part of [2..mine_max] *)
    let generic_move = cs_n < max 0 (mine_max - 1) in
    (not generic_move)
    ||
    let cs'_n = closure ar ~swap:(not swap) ~max_v:other_max buf in
    cs'_n < max 0 (other_max - 1)
  in
  side ~swap:false ~mine_max:p ~other_max:q
  && side ~swap:true ~mine_max:q ~other_max:p

(* The root is settled before any search state exists. An ε side (the
   letter constant is then defined on one side only, so the root is no
   partial isomorphism), an invalid [init], the 1-round closed form and a
   root table hit all answer without the memo, the candidate tables or
   the move orders; only a root none of them answers allocates those. *)
let solve ?cache ?(store_depth = max_int) ?(limit = max_int)
    ?(budget = 50_000_000) ~p ~q ~init k0 =
  if p < 0 || q < 0 || p + q = 0 then
    invalid_arg "Unary.solve: need p, q >= 0 and p + q >= 1";
  if p = 0 || q = 0 then (Some false, 0, 0)
  else
    let s = Packed.scratch () in
    let ar = s.ar in
    Arena.reset ar;
    Arena.push ar 0 0;
    Arena.push ar 1 1;
    let nconsts = 2 in
    (* validate the initial position entry by entry (once an entry fails,
       later ones are not added) *)
    let valid =
      List.for_all
        (fun (l, r) ->
          l >= 0 && l <= p && r >= 0 && r <= q && ext_ok ar l r
          && (Arena.push ar l r; true))
        init
    in
    let full = limit = max_int in
    let nodes = ref 0 in
    let visit k =
      incr nodes;
      Obs.Metrics.vec_incr m_nodes k;
      if !nodes > budget then raise Packed.Budget_exceeded
    in
    (* The shared-table slot of the current position. Deep positions skip
       the table entirely: during a cold scan they are never re-reachable
       from another instance (keys embed (p, q)), so building and hashing
       their keys is pure overhead — the local memo already dedups within
       this solve. *)
    let slot () =
      match cache with
      | Some c when Arena.len ar - nconsts <= store_depth ->
          Some (c, Position.unary_key ~p ~q (Arena.to_list ~from:nconsts ar))
      | _ -> None
    in
    let lookup k = function
      | Some (c, key) -> Cache.lookup c key ~k
      | None -> None
    in
    let search root =
      let rbits = Packed.bits_for (max p q) in
      let npairs0 = Arena.len ar - nconsts in
      let memo =
        Packed.Pmemo.create ~k0
          ~npairs_at:(fun k -> npairs0 + (k0 - k))
          ~pairbits:(2 * rbits)
      in
      let candidates_l = candidate_table ~mine_max:p ~other_max:q in
      let candidates_r = candidate_table ~mine_max:q ~other_max:p in
      let order_l = move_order p and order_r = move_order q in
      let rec wins k =
        visit k;
        if k = 0 then true
        else
          let n = Packed.fill_sorted_pairs s ar ~nconsts ~rbits in
          Packed.Pmemo.cached memo k s.keybuf n (fun () -> compute k)
      and compute k =
        (* closed form: never touches the shared table (the computation is
           cheaper than building its key) *)
        if k = 1 then w1 s ar ~p ~q
        else
          let sl = slot () in
          match lookup k sl with Some r -> r | None -> expand k sl
      and expand k sl =
        let r = spoiler false k && spoiler true k in
        (match sl with
        (* limited-mode failures are not genuine Spoiler wins *)
        | Some (c, key) when r || full -> Cache.store c key ~k r
        | _ -> ());
        r
      and spoiler swap k =
        let rec moves = function
          | [] -> true
          | a :: rest -> (dominated a || survives a) && moves rest
        and dominated a =
          let len = Arena.len ar in
          let l = Arena.col_a ar and r = Arena.col_b ar in
          let xs = if swap then r else l in
          let rec go i = i < len && (Array.unsafe_get xs i = a || go (i + 1)) in
          let d = go nconsts in
          if d then Obs.Metrics.incr m_prune_dominated;
          d
        and survives a =
          let other_max = if swap then p else q in
          match forced_reply ar ~swap ~other_max a with
          | exception Unsat ->
              Obs.Metrics.incr m_prune_unsat;
              false
          | -1 ->
              let cands = if swap then candidates_r a else candidates_l a in
              if full then List.exists (fun b -> try_reply a b) cands
              else
                let rec go i = function
                  | [] -> false
                  | b :: rest -> i < limit && (try_reply a b || go (i + 1) rest)
                in
                go 0 cands
          | b ->
              Obs.Metrics.incr m_prune_forced;
              try_reply a b
        and try_reply a b =
          let na, nb = if swap then (b, a) else (a, b) in
          ext_ok ar na nb
          && begin
               Arena.push ar na nb;
               let r = wins (k - 1) in
               Arena.pop ar;
               r
             end
        in
        moves (if swap then order_r else order_l)
      in
      (* the root cannot recur below itself, so it skips the memo *)
      let r = try Some (expand k0 root) with Packed.Budget_exceeded -> None in
      (r, !nodes, Packed.Pmemo.size memo)
    in
    if not valid then (Some false, 0, 0)
    else
      match visit k0 with
      | exception Packed.Budget_exceeded -> (None, !nodes, 0)
      | () -> (
          if k0 = 0 then (Some true, 1, 0)
          else if k0 = 1 then (Some (w1 s ar ~p ~q), 1, 0)
          else
            let root = slot () in
            match lookup k0 root with
            | Some r -> (Some r, 1, 0)
            | None -> search root)
