(* The EF-game search engine over succinct representations — factors as
   suffix-automaton ids ({!Words.Factor_bitset}), positions as
   arena-allocated int pairs ({!Arena}), memo keys as packed integers.
   This file holds the general (two-word) and existential recursions plus
   the per-domain scratch and position memo that the unary solver
   ({!Unary}) shares.

   Data layout choices, in one place:
   - a position's entries live in a per-domain {!Arena} (reset at solve
     start, pushed/popped during search: no per-node allocation);
   - local memo keys pack the sorted played pairs into one OCaml int
     whenever they fit in 62 bits, falling back to int-array keys (the
     number of played pairs is a function of remaining rounds, so the
     variable-width encoding is unambiguous within a table);
   - the last round reads the entries' concatenation patterns from flat
     per-side tables in the scratch ([patbuf]: xᵢ·xⱼ, quotients, √xᵢ),
     filled once per closed-form call, so its closure moves compare ints
     instead of probing the concatenation memo;
   - the candidate orders' lexicographic ranks and cross-word maps are
     built on the first candidate order a solve asks for; a 1-round
     solve never builds them;
   - shared-{!Cache} traffic uses {!Position} string keys, built only
     where a solver touches the table. *)

module Factor_bitset = Words.Factor_bitset

exception Budget_exceeded

(* Same registry instances as [Unary]: every node expansion lands in the
   bucket of its rounds-remaining, so the merged vector sums to a scan's
   global node total. *)
let m_nodes = Obs.Metrics.vec ~buckets:8 "game.nodes_by_k"
let m_prune_dominated = Obs.Metrics.counter "game.prune.dominated"

(* smallest b >= 1 with v < 2^b *)
let bits_for v =
  let rec go b = if v lsr b = 0 then b else go (b + 1) in
  max 1 (go 0)

(* ------------------------------------------------------------------ *)
(* Per-domain scratch: one arena and one sort buffer, reused across
   every solve on this domain. Solves reset the arena on entry and are
   not reentrant, so stack discipline guarantees no state leaks from one
   solve into the next (asserted by the arena-reuse tests). *)

type scratch = {
  ar : Arena.t;
  mutable keybuf : int array;
  mutable w1buf : int array; (* closure of the last-round closed forms *)
  mutable patbuf : int array; (* pattern tables of [last_round] *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        ar = Arena.create ();
        keybuf = Array.make 16 0;
        w1buf = Array.make 64 0;
        patbuf = Array.make 64 0;
      })

let scratch () = Domain.DLS.get scratch_key
let scratch_arena () = (scratch ()).ar

let ensure_keybuf s n =
  if Array.length s.keybuf < n then
    s.keybuf <- Array.make (max 16 (2 * n)) 0

let ensure_w1buf s n =
  if Array.length s.w1buf < n then s.w1buf <- Array.make (max 64 (2 * n)) 0

let ensure_patbuf s n =
  if Array.length s.patbuf < n then s.patbuf <- Array.make (max 64 (2 * n)) 0

(* ------------------------------------------------------------------ *)
(* Position memo: one table per remaining-round count. Within a table
   every key encodes the same number of played pairs, so the packed int
   (or the int array of packed pairs) is a faithful key. The probe array
   trick avoids allocating on lookups: probing Hashtbl with a mutable
   scratch key is sound (hashing and equality are structural); only a
   store copies. Recursion strictly decreases k, so probe.(k) is stable
   across the subtree computed under it. *)

module Pmemo = struct
  type t = {
    tbl : (int, bool) Hashtbl.t array;
    big : (int array, bool) Hashtbl.t array;
    fits : bool array;
    probe : int array array;
    pairbits : int;
  }

  let create ~k0 ~npairs_at ~pairbits =
    {
      tbl = Array.init (k0 + 1) (fun _ -> Hashtbl.create 64);
      big = Array.init (k0 + 1) (fun _ -> Hashtbl.create 8);
      fits = Array.init (k0 + 1) (fun k -> npairs_at k * pairbits <= 62);
      probe = Array.init (k0 + 1) (fun k -> Array.make (max 1 (npairs_at k)) 0);
      pairbits;
    }

  let size m =
    let total = ref 0 in
    Array.iter (fun t -> total := !total + Hashtbl.length t) m.tbl;
    Array.iter (fun t -> total := !total + Hashtbl.length t) m.big;
    !total

  (* memoized [compute ()] under the key in buf.[0 .. n-1] *)
  let cached m k buf n compute =
    if m.fits.(k) then begin
      let key = ref 0 in
      for i = 0 to n - 1 do
        key := (!key lsl m.pairbits) lor buf.(i)
      done;
      let key = !key in
      match Hashtbl.find_opt m.tbl.(k) key with
      | Some r -> r
      | None ->
          let r = compute () in
          Hashtbl.replace m.tbl.(k) key r;
          r
    end
    else begin
      let pr = m.probe.(k) in
      Array.blit buf 0 pr 0 n;
      match Hashtbl.find_opt m.big.(k) pr with
      | Some r -> r
      | None ->
          let r = compute () in
          Hashtbl.replace m.big.(k) (Array.copy pr) r;
          r
    end
end

(* Pack the played pairs (arena indices >= nconsts) into keybuf, each as
   (x lsl rbits) lor y, insertion-sorted ascending; returns the count.
   Numeric order on packed pairs is lexicographic order on (x, y), so
   two positions collide exactly when their sorted pair lists are
   equal. *)
let fill_sorted_pairs s ar ~nconsts ~rbits =
  let n = Arena.len ar - nconsts in
  ensure_keybuf s n;
  let buf = s.keybuf in
  let xs = Arena.col_a ar and ys = Arena.col_b ar in
  for i = 0 to n - 1 do
    let v =
      (Array.unsafe_get xs (nconsts + i) lsl rbits)
      lor Array.unsafe_get ys (nconsts + i)
    in
    let j = ref i in
    while !j > 0 && buf.(!j - 1) > v do
      buf.(!j) <- buf.(!j - 1);
      decr j
    done;
    buf.(!j) <- v
  done;
  n

(* ================================================================== *)
(* General engine: the two-word game (and the existential one-sided    *)
(* game) over factor ids.                                              *)
(* ================================================================== *)

type gside = {
  fb : Factor_bitset.t;
  lexrank : int array Lazy.t; (* id -> rank in String.compare order *)
  wlen : int;
}

type gstate = {
  gl : gside;
  gr : gside;
  consts_l : int array; (* parallel entry coordinates; -1 encodes ⊥ *)
  consts_r : int array;
  moves_l : int array; (* Spoiler moves, longest first (desc len, lex) *)
  moves_r : int array;
  xmap_lr : int array Lazy.t; (* left id -> right id of the same string, or -1 *)
  xmap_rl : int array Lazy.t;
  cand_l : int array option array; (* response order per left move *)
  cand_r : int array option array;
  lbits : int;
  gbits : int; (* bits of a packed (left, right) pair: lbits + rbits *)
}

(* String.compare on two factors of one word, via character reads. *)
let cmp_lex fb i j =
  if i = j then 0
  else
    let w = Factor_bitset.word fb in
    let li = Factor_bitset.length fb i and lj = Factor_bitset.length fb j in
    let si = Factor_bitset.start fb i and sj = Factor_bitset.start fb j in
    let m = if li < lj then li else lj in
    let rec go k =
      if k = m then compare li lj
      else
        let c = Char.compare w.[si + k] w.[sj + k] in
        if c <> 0 then c else go (k + 1)
    in
    go 0

(* Game.by_desc_length: descending length, then String.compare. *)
let cmp_desc_len fb i j =
  let c = compare (Factor_bitset.length fb j) (Factor_bitset.length fb i) in
  if c <> 0 then c else cmp_lex fb i j

(* [lexrank] and the cross maps are read only by [build_candidates]:
   built on its first call, never for a 1-round solve. A gstate belongs
   to one solver, so no two domains force the same lazy value. *)
let make_gside w =
  let fb = Factor_bitset.of_word w in
  let lexrank =
    lazy
      (let size = Factor_bitset.size fb in
       let ids = Array.init size Fun.id in
       Array.sort (cmp_lex fb) ids;
       let lexrank = Array.make size 0 in
       Array.iteri (fun rank id -> lexrank.(id) <- rank) ids;
       lexrank)
  in
  { fb; lexrank; wlen = String.length w }

let const_ids fb proj consts =
  List.map
    (fun e ->
      match proj e with
      | None -> -1
      | Some v -> (
          match Factor_bitset.id_of fb v with
          | Some i -> i
          | None -> invalid_arg "Packed.make_gstate: constant not a factor"))
    consts
  |> Array.of_list

let movable side consts =
  let size = Factor_bitset.size side.fb in
  let skip = Factor_bitset.Bitset.create size in
  Array.iter (fun i -> if i >= 0 then Factor_bitset.Bitset.add skip i) consts;
  let out = ref [] in
  for i = size - 1 downto 0 do
    if not (Factor_bitset.Bitset.mem skip i) then out := i :: !out
  done;
  let arr = Array.of_list !out in
  Array.sort (cmp_desc_len side.fb) arr;
  arr

let cross_map from_ to_ =
  Array.init (Factor_bitset.size from_.fb) (fun a ->
      Factor_bitset.id_of_sub to_.fb
        (Factor_bitset.word from_.fb)
        ~off:(Factor_bitset.start from_.fb a)
        ~len:(Factor_bitset.length from_.fb a))

(* Does the candidate sort key of [build_candidates] fit in 62 bits when
   replies range over [ft] factors? With L = |w| + |v|, a key is at most
   kmax = (2(L + 1) + dmax + 1)·ft (penalty ≤ 2, distance ≤ dmax =
   max(|w|, |v|), lex rank < ft), and the reply id takes the low
   bits(ft − 1) bits below it, so the packed value stays under 2^62 iff
   bits(kmax) + bits(ft − 1) ≤ 62.

   No realistic structure gets near this. Since kmax < 3(L + 1)·ft and
   2^bits(ft − 1) ≤ 2·ft, failing needs ft² > 2^62 / (6(L + 1)). A word
   of length ≤ L has at most L + 1 distinct factors of each length, so
   those ft factors total more than ft² / (2(L + 1)) > 2^62 / (12(L + 1)²)
   bytes of text; and the longer word alone has factors of every length
   up to L/2, more than L²/8 bytes. The larger of the two bounds is
   smallest near L = 42,000, at about 220 MB of factor text spread over
   more than 4 million factors, each of which {!Fc.Structure} also keeps
   behind at least 48 bytes of string header and table slots: no pair
   of structures under ~400 MB reaches the bound. *)
let key_fits ~l ~dmax ~ft =
  let m = (2 * (l + 1)) + dmax + 1 in
  ft <= max_int / m && bits_for (m * ft) + bits_for (max 1 (ft - 1)) <= 62

let make_gstate left right consts =
  let lw = Fc.Structure.word left and rw = Fc.Structure.word right in
  let gl = make_gside lw and gr = make_gside rw in
  let fl = Factor_bitset.size gl.fb and fr = Factor_bitset.size gr.fb in
  let l = gl.wlen + gr.wlen and dmax = max gl.wlen gr.wlen in
  if not (key_fits ~l ~dmax ~ft:fl && key_fits ~l ~dmax ~ft:fr) then
    invalid_arg "Packed.make_gstate: candidate sort key exceeds 62 bits";
  {
    gl;
    gr;
    consts_l = const_ids gl.fb fst consts;
    consts_r = const_ids gr.fb snd consts;
    moves_l = movable gl (const_ids gl.fb fst consts);
    moves_r = movable gr (const_ids gr.fb snd consts);
    xmap_lr = lazy (cross_map gl gr);
    xmap_rl = lazy (cross_map gr gl);
    cand_l = Array.make fl None;
    cand_r = Array.make fr None;
    lbits = bits_for (max 1 (fl - 1));
    gbits = bits_for (max 1 (fl - 1)) + bits_for (max 1 (fr - 1));
  }

(* Game.response_candidates' tail: the whole response universe sorted by
   (score, response) — the score is position-independent, so the order
   is computed once per (side, move) and reused at every node. Key
   layout (most significant first): identical-response flag, prefix/
   suffix status penalty, length distance, lexicographic rank — exactly
   the ((-1|0, penalty, distance), string) sort key of
   [Game.response_candidates]. *)
let build_candidates ~from_ ~to_ ~xmap a =
  let ft = Factor_bitset.size to_.fb in
  let rbits = bits_for (max 1 (ft - 1)) in
  let la = Factor_bitset.length from_.fb a in
  let lf = from_.wlen and lt = to_.wlen in
  let apre = Factor_bitset.is_word_prefix from_.fb a in
  let asuf = Factor_bitset.is_word_suffix from_.fb a in
  let xa = (Lazy.force xmap).(a) in
  let lexrank = Lazy.force to_.lexrank in
  let arr =
    Array.init ft (fun r ->
        let key =
          if r = xa then 0
          else
            let lr = Factor_bitset.length to_.fb r in
            let pen =
              (if Factor_bitset.is_word_prefix to_.fb r = apre then 0 else 1)
              + if Factor_bitset.is_word_suffix to_.fb r = asuf then 0 else 1
            in
            let mirror = abs (lt - lr - (lf - la)) in
            let direct = abs (lr - la) in
            let dist = if mirror < direct then mirror else direct in
            1 + (((pen * (lf + lt + 1)) + dist) * ft) + lexrank.(r)
        in
        (key lsl rbits) lor r)
  in
  Array.sort (fun (x : int) y -> compare x y) arr;
  let mask = (1 lsl rbits) - 1 in
  Array.map (fun v -> v land mask) arr

let candidates st swap a =
  let tbl = if swap then st.cand_r else st.cand_l in
  match tbl.(a) with
  | Some arr -> arr
  | None ->
      let arr =
        if swap then
          build_candidates ~from_:st.gr ~to_:st.gl ~xmap:st.xmap_rl a
        else build_candidates ~from_:st.gl ~to_:st.gr ~xmap:st.xmap_lr a
      in
      tbl.(a) <- Some arr;
      arr

(* Game.derived_candidates over ids: same patterns, same discovery order
   (most recent play first, then constants in declaration order), same
   dedup; responses that are not factors of the target word are
   dropped. *)
let derived st ar ~nconsts swap a =
  let from_ = if swap then st.gr else st.gl in
  let to_ = if swap then st.gl else st.gr in
  let ffb = from_.fb and tfb = to_.fb in
  let len = Arena.len ar in
  let nplayed = len - nconsts in
  let idx t = if t < nplayed then len - 1 - t else t - nplayed in
  let x_at t =
    let i = idx t in
    if swap then Arena.snd_at ar i else Arena.fst_at ar i
  in
  let y_at t =
    let i = idx t in
    if swap then Arena.fst_at ar i else Arena.snd_at ar i
  in
  let la = Factor_bitset.length ffb a in
  let out = ref [] in
  let add r = if not (List.mem r !out) then out := r :: !out in
  for ti = 0 to len - 1 do
    let xi = x_at ti and yi = y_at ti in
    if xi >= 0 && yi >= 0 then
      for tj = 0 to len - 1 do
        let xj = x_at tj and yj = y_at tj in
        if xj >= 0 && yj >= 0 then begin
          (* a = xi · xj  ⇒  respond yi · yj *)
          if Factor_bitset.concat ffb xi xj = a then begin
            let r = Factor_bitset.concat tfb yi yj in
            if r >= 0 then add r
          end;
          let li = Factor_bitset.length ffb xi in
          let lj = Factor_bitset.length ffb xj in
          let lyi = Factor_bitset.length tfb yi in
          let lyj = Factor_bitset.length tfb yj in
          (* xi = a · xj  ⇒  respond yi with suffix yj removed *)
          if
            li = la + lj
            && Factor_bitset.is_prefix_of ffb a xi
            && Factor_bitset.is_suffix_of ffb xj xi
            && Factor_bitset.is_suffix_of tfb yj yi
          then add (Factor_bitset.sub_id tfb yi ~off:0 ~len:(lyi - lyj));
          (* xi = xj · a  ⇒  respond yi with prefix yj removed *)
          if
            li = lj + la
            && Factor_bitset.is_prefix_of ffb xj xi
            && Factor_bitset.is_suffix_of ffb a xi
            && Factor_bitset.is_prefix_of tfb yj yi
          then add (Factor_bitset.sub_id tfb yi ~off:lyj ~len:(lyi - lyj))
        end
      done
  done;
  List.rev !out

let c3 fb x y z = x >= 0 && y >= 0 && z >= 0 && Factor_bitset.concat fb y z = x

(* Partial_iso.extension_ok over ids: pairwise equality-pattern checks
   of the new entry against every entry, then every concatenation triple
   containing the new entry (index -1 below). *)
let ext_ok st ar nl nr =
  let len = Arena.len ar in
  let rec pairs i =
    i >= len
    || (nl = Arena.fst_at ar i) = (nr = Arena.snd_at ar i) && pairs (i + 1)
  in
  pairs 0
  &&
  let getl t = if t < 0 then nl else Arena.fst_at ar t in
  let getr t = if t < 0 then nr else Arena.snd_at ar t in
  let tri i j k =
    c3 st.gl.fb (getl i) (getl j) (getl k)
    = c3 st.gr.fb (getr i) (getr j) (getr k)
  in
  let ok = ref true in
  let i = ref (-1) in
  while !ok && !i < len do
    let j = ref (-1) in
    while !ok && !j < len do
      if
        not (tri (-1) !i !j && tri !i (-1) !j && tri !i !j (-1))
      then ok := false;
      incr j
    done;
    incr i
  done;
  !ok

(* Existential.extension_ok: one-directional preservation (left patterns
   must transfer to the right; the converse imposes nothing). *)
let ext_ok_exist st ar nl nr =
  let len = Arena.len ar in
  let rec pairs i =
    i >= len
    || (Arena.fst_at ar i <> nl || Arena.snd_at ar i = nr) && pairs (i + 1)
  in
  pairs 0
  &&
  let getl t = if t < 0 then nl else Arena.fst_at ar t in
  let getr t = if t < 0 then nr else Arena.snd_at ar t in
  let tri i j k =
    (not (c3 st.gl.fb (getl i) (getl j) (getl k)))
    || c3 st.gr.fb (getr i) (getr j) (getr k)
  in
  let ok = ref true in
  let i = ref (-1) in
  while !ok && !i < len do
    let j = ref (-1) in
    while !ok && !j < len do
      if
        not (tri (-1) !i !j && tri !i (-1) !j && tri !i !j (-1))
      then ok := false;
      incr j
    done;
    incr i
  done;
  !ok

(* Exact closed form for the last round of the full-width general game:
   {!Unary}'s [w1] argument, carried over to any alphabet. Def. 3.1
   constrains only the pebbled entries, so a Spoiler move [a] matters
   only through the patterns it fires with them: a = xᵢ, a = xᵢ·xⱼ,
   xᵢ = a·xⱼ, xᵢ = xⱼ·a and xᵢ = a·a (a = ε is a = xᵢ: ε is a constant).
   The mover side's closure is the set of elements that fire one: the
   xᵢ (ε among them), xᵢ·xⱼ, xᵢ with suffix xⱼ removed, xᵢ with prefix
   xⱼ removed, and √xᵢ; ⊥ entries contribute nothing.
   - A closure element equal to an entry is a constant (no move) or a
     dominated move (its partner answers it). Any other closure move
     fires a pattern whose mirror pins the reply down, so Duplicator
     survives it iff that reply exists and passes [ext_ok]; the mirror
     is taken from the first pattern that generates the move.
   - A generic move (outside the closure) fires no pattern but the
     ε-absorption ones (a = a·ε, a = ε·a), which hold on both sides for
     any reply. So a reply passes [ext_ok] iff it fires nothing on its
     own side, i.e. lies outside the reply side's closure: Duplicator
     survives the generic moves iff, when the mover's closure misses a
     factor, the reply side's closure misses one too.
   Every pattern above is a function of the entries alone, so both
   sides' pattern tables are filled once per call ([fill_patterns]);
   the closure is read off them in the order entries, then per i the
   (xᵢ·xⱼ, lq, rq) of each j, then √xᵢ, and each closure move is
   checked by [ext_ok_tab], which compares ints instead of probing the
   concatenation memo. [seen_l] / [seen_r] are all-clear bitsets over
   each side's ids on entry and on return. The only accounting inside
   is one [m_refuted] or [m_generic_mismatch] bump per losing call: the
   leaves below the closed form are not visited, as in the unary
   solver. *)
exception Refuted

let m_refuted = Obs.Metrics.counter "game.last_round.refuted"

let m_generic_mismatch =
  Obs.Metrics.counter "game.last_round.generic_mismatch"

(* the id of u when x = u·u, else -1 *)
let halves fb x =
  let l = Factor_bitset.length fb x in
  if l land 1 = 0 then
    let h = Factor_bitset.sub_id fb x ~off:0 ~len:(l / 2) in
    if Factor_bitset.is_suffix_of fb h x then h else -1
  else -1

(* One side's pattern tables over its [len] entries [xs], written to [t]
   from [base]: with m = len², cat at [base + i·len + j] (xᵢ·xⱼ), lq at
   [+ m] (xᵢ with suffix xⱼ removed), rq at [+ 2m] (xᵢ with prefix xⱼ
   removed) and half at [base + 3m + i] (√xᵢ). -1 marks a pattern that
   is undefined or involves ⊥. *)
let fill_patterns t ~base fb xs len =
  let m = len * len in
  for i = 0 to len - 1 do
    let xi = xs.(i) in
    for j = 0 to len - 1 do
      let xj = xs.(j) in
      let c = base + (i * len) + j in
      if xi < 0 || xj < 0 then begin
        t.(c) <- -1;
        t.(c + m) <- -1;
        t.(c + (2 * m)) <- -1
      end
      else begin
        let li = Factor_bitset.length fb xi and lj = Factor_bitset.length fb xj in
        t.(c) <- Factor_bitset.concat fb xi xj;
        t.(c + m) <-
          (if Factor_bitset.is_suffix_of fb xj xi then
             Factor_bitset.sub_id fb xi ~off:0 ~len:(li - lj)
           else -1);
        t.(c + (2 * m)) <-
          (if Factor_bitset.is_prefix_of fb xj xi then
             Factor_bitset.sub_id fb xi ~off:lj ~len:(li - lj)
           else -1)
      end
    done;
    t.(base + (3 * m) + i) <- (if xi >= 0 then halves fb xi else -1)
  done

(* [ext_ok st ar nl nr] read off the pattern tables (left side at 0,
   right side at [rb]), for nl, nr >= 0. The triples with the new
   element once are n = xᵢ·xⱼ, xᵢ = n·xⱼ and xᵢ = xⱼ·n: one table
   comparison each. With it twice or three times they are n = n·xᵢ and
   n = xᵢ·n (xᵢ = ε), xᵢ = n·n (n = √xᵢ) and n = n·n (n = ε). *)
let ext_ok_tab t ~rb ~len xl xr nl nr =
  let m = len * len in
  let rec pairs i =
    i >= len || ((nl = xl.(i)) = (nr = xr.(i)) && pairs (i + 1))
  in
  pairs 0
  && (nl = 0) = (nr = 0)
  &&
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < len do
    let h = (3 * m) + !i in
    if
      (xl.(!i) = 0) <> (xr.(!i) = 0)
      || (nl = t.(h)) <> (nr = t.(rb + h))
    then ok := false;
    let j = ref 0 in
    while !ok && !j < len do
      let c = (!i * len) + !j in
      if
        (nl = t.(c)) <> (nr = t.(rb + c))
        || (nl = t.(c + m)) <> (nr = t.(rb + c + m))
        || (nl = t.(c + (2 * m))) <> (nr = t.(rb + c + (2 * m)))
      then ok := false;
      incr j
    done;
    incr i
  done;
  !ok

let last_round s st ar ~seen_l ~seen_r =
  let len = Arena.len ar in
  let m = len * len in
  (* distinct closure elements: the entries, three per entry pair, and
     one square root per entry *)
  ensure_w1buf s (len * ((3 * len) + 2));
  let stride = (3 * m) + len in
  ensure_patbuf s (2 * stride);
  let buf = s.w1buf and t = s.patbuf in
  let xl = Arena.col_a ar and xr = Arena.col_b ar in
  fill_patterns t ~base:0 st.gl.fb xl len;
  fill_patterns t ~base:stride st.gr.fb xr len;
  (* [Some generic] when every closure move on the [swap]-oriented mover
     side survives; [generic]: the closure misses some factor *)
  let side ~swap =
    let mb, rb = if swap then (stride, 0) else (0, stride) in
    let xs = if swap then xr else xl in
    let seen = if swap then seen_r else seen_l in
    let n = ref 0 in
    let fresh a =
      (not (Factor_bitset.Bitset.mem seen a))
      && begin
           Factor_bitset.Bitset.add seen a;
           buf.(!n) <- a;
           incr n;
           true
         end
    in
    (* the closure move at table offset c, with its forced reply (-1:
       none exists) at the same offset on the reply side *)
    let move c =
      let a = t.(mb + c) and r = t.(rb + c) in
      if
        a >= 0 && fresh a
        && not
             (r >= 0
             &&
             if swap then ext_ok_tab t ~rb:stride ~len xl xr r a
             else ext_ok_tab t ~rb:stride ~len xl xr a r)
      then raise Refuted
    in
    let generate () =
      for i = 0 to len - 1 do
        let x = xs.(i) in
        if x >= 0 then ignore (fresh x)
      done;
      for i = 0 to len - 1 do
        for j = 0 to len - 1 do
          let c = (i * len) + j in
          move c;
          move (c + m);
          move (c + (2 * m))
        done;
        move ((3 * m) + i)
      done
    in
    let mfb = if swap then st.gr.fb else st.gl.fb in
    let r =
      match generate () with
      | () -> Some (!n < Factor_bitset.size mfb)
      | exception Refuted -> None
    in
    for e = 0 to !n - 1 do
      Factor_bitset.Bitset.remove seen buf.(e)
    done;
    r
  in
  let lost c =
    Obs.Metrics.incr c;
    false
  in
  match side ~swap:false with
  | None -> lost m_refuted
  | Some generic_l -> (
      match side ~swap:true with
      | None -> lost m_refuted
      | Some generic_r -> generic_l = generic_r || lost m_generic_mismatch)

let factor_id fb v =
  match Factor_bitset.id_of fb v with
  | Some i -> i
  | None -> invalid_arg "Packed.run_general: played element not a factor"

(* The shared ∀∃ recursion. [exist] selects Existential's one-sided game
   (Left moves only, directional extension check, no Obs metrics). The
   played [init] pairs sit on the arena above the constants, exactly
   where the search's own plays go. Duplicator tries the derived replies
   first, then at most [width] of the remaining candidates. The full-width
   general game settles its last round with [last_round] instead. *)
let run st ~exist ~metrics ~init ~width ~nodes0 ~budget k0 =
  let s = scratch () in
  let ar = s.ar in
  Arena.reset ar;
  let nconsts = Array.length st.consts_l in
  for i = 0 to nconsts - 1 do
    Arena.push ar st.consts_l.(i) st.consts_r.(i)
  done;
  List.iter
    (fun (l, r) -> Arena.push ar (factor_id st.gl.fb l) (factor_id st.gr.fb r))
    init;
  let npairs0 = List.length init in
  let rbits = st.gbits - st.lbits in
  let nodes = ref nodes0 in
  let memo =
    Pmemo.create ~k0
      ~npairs_at:(fun k -> npairs0 + (k0 - k))
      ~pairbits:st.gbits
  in
  (* the last round is settled in closed form unless Duplicator is
     one-sided or width-limited *)
  let closed = (not exist) && width = max_int in
  let seen_l =
    Factor_bitset.Bitset.create (if closed then Factor_bitset.size st.gl.fb else 0)
  in
  let seen_r =
    Factor_bitset.Bitset.create (if closed then Factor_bitset.size st.gr.fb else 0)
  in
  let rec wins k =
    incr nodes;
    if metrics then Obs.Metrics.vec_incr m_nodes k;
    if !nodes > budget then raise Budget_exceeded;
    if k = 0 then true
    else
      let n = fill_sorted_pairs s ar ~nconsts ~rbits in
      Pmemo.cached memo k s.keybuf n (fun () ->
          if exist then spoiler false k
          else if closed && k = 1 then last_round s st ar ~seen_l ~seen_r
          else spoiler false k && spoiler true k)
  and spoiler swap k =
    let moves = if swap then st.moves_r else st.moves_l in
    let nmoves = Array.length moves in
    let rec go i = i >= nmoves || (try_move moves.(i) && go (i + 1))
    and try_move a = dominated a || survives a
    and dominated a =
      let len = Arena.len ar in
      let rec scan i =
        i < len
        && ((if swap then Arena.snd_at ar i else Arena.fst_at ar i) = a
           || scan (i + 1))
      in
      let d = scan nconsts in
      if d && metrics then Obs.Metrics.incr m_prune_dominated;
      d
    and survives a =
      let d = derived st ar ~nconsts swap a in
      let rec tryd = function
        | [] ->
            let cand = candidates st swap a in
            let m = Array.length cand in
            let rec rest i tried =
              i < m && tried < width
              &&
              let r = cand.(i) in
              if List.mem r d then rest (i + 1) tried
              else try_reply a r || rest (i + 1) (tried + 1)
            in
            rest 0 0
        | r :: more -> try_reply a r || tryd more
      in
      tryd d
    and try_reply a r =
      let nl, nr = if swap then (r, a) else (a, r) in
      (if exist then ext_ok_exist st ar nl nr else ext_ok st ar nl nr)
      && begin
           Arena.push ar nl nr;
           let v = wins (k - 1) in
           Arena.pop ar;
           v
         end
    in
    go 0
  in
  let result = (try Some (wins k0) with Budget_exceeded -> None) in
  (result, !nodes, Pmemo.size memo)

let run_general st ?(init = []) ?(width = max_int) ?(nodes0 = 0) ~budget k0 =
  run st ~exist:false ~metrics:true ~init ~width ~nodes0 ~budget k0

let run_existential st ~budget k0 =
  let r, _, _ =
    run st ~exist:true ~metrics:false ~init:[] ~width:max_int ~nodes0:0 ~budget
      k0
  in
  r
