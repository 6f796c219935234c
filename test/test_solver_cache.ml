(* The transposition-table solver engine: cached, parallel and seed
   searches must return byte-identical verdicts; table entries are
   rounds-aware; Unknown entries carry their budget provenance and are
   never reused to answer a better-resourced query. *)

open Efgame

let unary n = String.make n 'a'

let verdict = Alcotest.testable Game.pp_verdict (fun a b -> a = b)
let check = Alcotest.(check bool)

(* word pairs exercised by the existing game/theorem tests: unary pairs
   on both sides of the ≡₁/≡₂ frontiers, mixed alphabets, ε, and the
   non-unary shapes from E1/E8 *)
let instances =
  [
    ("", "a", 0);
    ("ab", "ba", 0);
    ("ab", "aa", 0);
    (unary 2, unary 1, 2);
    (unary 4, unary 3, 2);
    (unary 8, unary 7, 2);
    (unary 3, unary 4, 1);
    (unary 2, unary 3, 1);
    (unary 12, unary 14, 2);
    (unary 12, unary 13, 2);
    (unary 11, unary 13, 2);
    (unary 5, unary 5, 3);
    ("abab", "abab", 3);
    ("abab", "baba", 2);
    (unary 4 ^ "bbb", unary 3 ^ "bbb", 1);
    (unary 4 ^ "bbb", unary 3 ^ "bbb", 2);
    ("aaaabbb", "aaabbb", 1);
    ("aaaabbb", "aaabbb", 2);
    ("ab", "aabb", 1);
  ]

let test_cached_agrees_with_seed () =
  let cache = Cache.create () in
  List.iter
    (fun (w, v, k) ->
      Alcotest.check verdict
        (Printf.sprintf "%S vs %S @%d" w v k)
        (Game.equiv w v k)
        (Game.equiv ~cache w v k))
    instances

let test_cached_agrees_on_reuse () =
  (* second query through a warm table must not change the verdict *)
  let cache = Cache.create () in
  List.iter
    (fun (w, v, k) ->
      let first = Game.equiv ~cache w v k in
      let second = Game.equiv ~cache w v k in
      Alcotest.check verdict (Printf.sprintf "warm %S vs %S @%d" w v k) first second;
      Alcotest.check verdict
        (Printf.sprintf "warm vs seed %S vs %S @%d" w v k)
        (Game.equiv w v k) second)
    instances

let test_witness_engines_agree () =
  List.iter
    (fun (k, max_n) ->
      let seed = Witness.minimal_pair ~k ~max_n () in
      let cached =
        Witness.minimal_pair ~engine:(Witness.Cached (Cache.create ())) ~k ~max_n ()
      in
      let par =
        Witness.minimal_pair ~engine:(Witness.Parallel (Cache.create (), 2)) ~k ~max_n ()
      in
      check (Printf.sprintf "scan k=%d n<=%d cached" k max_n) true (seed = cached);
      check (Printf.sprintf "scan k=%d n<=%d parallel" k max_n) true (seed = par))
    [ (0, 3); (1, 6); (2, 14); (2, 11); (3, 18) ]

let test_unary_closed_form_agrees () =
  (* the arithmetic fast path (with its closed-form 1-round game) against
     the seed string solver, exhaustively on a small grid *)
  for k = 1 to 2 do
    for p = 1 to 18 do
      for q = p to 18 do
        let seed = Game.equiv (unary p) (unary q) k in
        let fast =
          match Unary.solve ~p ~q ~init:[] k with
          | Some true, _, _ -> Game.Equiv
          | Some false, _, _ -> Game.Not_equiv
          | None, _, _ -> Game.Unknown
        in
        Alcotest.check verdict (Printf.sprintf "unary (%d,%d)@%d" p q k) seed fast
      done
    done
  done

(* ---------------- rounds-aware table semantics ---------------- *)

let test_rounds_aware_lookup () =
  let c = Cache.create () in
  let key = Position.unary_key ~p:12 ~q:14 [] in
  (* Duplicator wins 2 rounds from here ⇒ wins any fewer *)
  Cache.store c key ~k:2 true;
  check "win@2 answers k=2" true (Cache.lookup c key ~k:2 = Some true);
  check "win@2 answers k=1" true (Cache.lookup c key ~k:1 = Some true);
  check "win@2 silent on k=3" true (Cache.lookup c key ~k:3 = None);
  (* Spoiler wins 3 rounds from here ⇒ wins any more *)
  Cache.store c key ~k:3 false;
  check "lose@3 answers k=3" true (Cache.lookup c key ~k:3 = Some false);
  check "lose@3 answers k=4" true (Cache.lookup c key ~k:4 = Some false);
  check "win frontier intact" true (Cache.lookup c key ~k:2 = Some true)

let test_unknown_budget_provenance () =
  let c = Cache.create () in
  let key = Position.unary_key ~p:30 ~q:32 [] in
  Cache.store_unknown c key ~k:2 ~width:max_int ~budget:1_000;
  (* same or tighter resources: the failure certificate applies *)
  check "same budget reusable" true
    (Cache.unknown_reusable c key ~k:2 ~width:max_int ~budget:1_000);
  check "smaller budget reusable" true
    (Cache.unknown_reusable c key ~k:2 ~width:max_int ~budget:500);
  (* more budget, a different round count, or a wider width: must re-search *)
  check "larger budget not reusable" false
    (Cache.unknown_reusable c key ~k:2 ~width:max_int ~budget:2_000);
  check "different k not reusable" false
    (Cache.unknown_reusable c key ~k:3 ~width:max_int ~budget:1_000);
  (* a narrow (weaker) search that starved is evidence for any wider
     search at no-larger budget — the wide tree is a superset — but not
     for a narrower one, which explores fewer nodes and might finish *)
  Cache.store_unknown c key ~k:4 ~width:4 ~budget:1_000_000;
  check "narrow starvation answers wider" true
    (Cache.unknown_reusable c key ~k:4 ~width:max_int ~budget:1_000);
  check "narrow starvation silent on narrower" false
    (Cache.unknown_reusable c key ~k:4 ~width:2 ~budget:1_000)

let test_unknown_not_poisoning_solver () =
  (* end-to-end: a budget-starved Unknown must not stop a later,
     better-funded query from finding the real answer *)
  let cache = Cache.create () in
  let starved = Game.equiv ~cache ~budget:3 (unary 12) (unary 14) 2 in
  Alcotest.check verdict "starved run is Unknown" Game.Unknown starved;
  let funded = Game.equiv ~cache (unary 12) (unary 14) 2 in
  Alcotest.check verdict "funded run solves" Game.Equiv funded;
  (* and the starved certificate is replaced by the real verdict *)
  Alcotest.check verdict "rerun stays solved" Game.Equiv
    (Game.equiv ~cache ~budget:3 (unary 12) (unary 14) 2)

let test_limited_mode_cache_soundness () =
  (* width-limited true answers are genuine wins and may be cached;
     width-limited false answers must not poison the table *)
  let cache = Cache.create () in
  let limited =
    Game.equiv ~cache ~mode:(Game.Duplicator_limited 2) (unary 2) (unary 3) 1
  in
  check "limited refutation is only Unknown" true (limited <> Game.Equiv);
  Alcotest.check verdict "full search after limited run" Game.Not_equiv
    (Game.equiv ~cache (unary 2) (unary 3) 1);
  let cache2 = Cache.create () in
  Alcotest.check verdict "limited win is genuine" Game.Equiv
    (Game.equiv ~cache:cache2 ~mode:(Game.Duplicator_limited 6) (unary 3) (unary 4) 1);
  Alcotest.check verdict "table reusable by full search" Game.Equiv
    (Game.equiv ~cache:cache2 (unary 3) (unary 4) 1)

let test_canonical_keys () =
  (* left/right mirror symmetry: both orientations share one table key *)
  let k1 = Position.key ~sigma:[ 'a' ] ~left:"aa" ~right:"aaa" [ ("a", "aa") ] in
  let k2 = Position.key ~sigma:[ 'a' ] ~left:"aaa" ~right:"aa" [ ("aa", "a") ] in
  check "mirror general key" true (k1 = k2);
  let u1 = Position.unary_key ~p:12 ~q:14 [ (3, 5) ] in
  let u2 = Position.unary_key ~p:14 ~q:12 [ (5, 3) ] in
  check "mirror unary key" true (u1 = u2);
  check "distinct positions distinct keys" true
    (Position.unary_key ~p:12 ~q:14 [ (3, 5) ]
    <> Position.unary_key ~p:12 ~q:14 [ (3, 4) ]);
  (* pair order is normalized away *)
  check "pair order canonical" true
    (Position.unary_key ~p:12 ~q:14 [ (3, 5); (7, 7) ]
    = Position.unary_key ~p:12 ~q:14 [ (7, 7); (3, 5) ])

let test_cache_counters () =
  let cache = Cache.create () in
  ignore (Game.equiv ~cache (unary 12) (unary 14) 2);
  let st = Cache.stats cache in
  check "entries were stored" true (st.Cache.entries > 0);
  check "misses counted" true (st.Cache.misses > 0);
  ignore (Game.equiv ~cache (unary 12) (unary 14) 2);
  let st2 = Cache.stats cache in
  check "second run hits" true (st2.Cache.hits > st.Cache.hits)

(* ---------------- randomized cross-engine audit ---------------- *)

let arb_instance =
  let gen =
    QCheck.Gen.(
      let word = string_size ~gen:(oneofl [ 'a'; 'b' ]) (0 -- 6) in
      triple word word (0 -- 2))
  in
  QCheck.make gen ~print:(fun (w, v, k) -> Printf.sprintf "(%S, %S, %d)" w v k)

let prop_cached_agrees =
  QCheck.Test.make ~name:"cached verdicts equal the seed solver"
    ~count:120 arb_instance (fun (w, v, k) ->
      let seed = Game.equiv w v k in
      let cache = Cache.create () in
      let cached = Game.equiv ~cache w v k in
      seed = cached)

let prop_unary_fast_path =
  let gen = QCheck.Gen.(triple (1 -- 24) (1 -- 24) (0 -- 2)) in
  QCheck.Test.make
    ~name:"unary fast path equals the string solver"
    ~count:120
    (QCheck.make gen ~print:(fun (p, q, k) -> Printf.sprintf "(%d, %d, %d)" p q k))
    (fun (p, q, k) ->
      let seed = Game.equiv (unary p) (unary q) k in
      let fast =
        match Unary.solve ~p ~q ~init:[] k with
        | Some true, _, _ -> Game.Equiv
        | Some false, _, _ -> Game.Not_equiv
        | None, _, _ -> Game.Unknown
      in
      seed = fast)

let tests =
  ( "solver_cache",
    [
      Alcotest.test_case "cached verdicts equal seed" `Quick test_cached_agrees_with_seed;
      Alcotest.test_case "warm table verdicts stable" `Quick test_cached_agrees_on_reuse;
      Alcotest.test_case "witness engines agree" `Quick test_witness_engines_agree;
      Alcotest.test_case "unary closed form agrees" `Quick test_unary_closed_form_agrees;
      Alcotest.test_case "rounds-aware lookup" `Quick test_rounds_aware_lookup;
      Alcotest.test_case "unknown budget provenance" `Quick test_unknown_budget_provenance;
      Alcotest.test_case "unknown does not poison" `Quick test_unknown_not_poisoning_solver;
      Alcotest.test_case "limited mode cache soundness" `Quick test_limited_mode_cache_soundness;
      Alcotest.test_case "canonical position keys" `Quick test_canonical_keys;
      Alcotest.test_case "hit/miss counters" `Quick test_cache_counters;
      QCheck_alcotest.to_alcotest prop_cached_agrees;
      QCheck_alcotest.to_alcotest prop_unary_fast_path;
    ] )
