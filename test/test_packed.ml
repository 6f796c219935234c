(* The solver against the string-based oracle (test/seed_oracle.ml): the
   packed general and existential searches, the unary solver, and the
   cached paths through the shared table must all return the oracle's
   verdicts — from the empty position and from played positions, in full
   and Duplicator-limited mode. Plus the arena discipline: per-domain
   scratch reuse across solves must never let one solve's configurations
   alias into the next. *)

open Efgame

let unary n = String.make n 'a'

let verdict = Alcotest.testable Game.pp_verdict (fun a b -> a = b)

let expected ?(mode = Game.Full) oracle =
  match (oracle, mode) with
  | true, _ -> Game.Equiv
  | false, Game.Full -> Game.Not_equiv
  | false, Game.Duplicator_limited _ -> Game.Unknown

(* unary pairs straddling the ≡₁/≡₂ frontiers, ε, the same-word
   diagonal, mixed alphabets, non-unary shapes *)
let instances =
  [
    ("", "a", 0);
    ("", "", 2);
    ("", "ab", 1);
    ("a", "a", 2);
    ("ab", "ba", 0);
    ("ab", "ba", 1);
    ("ab", "aa", 0);
    (unary 2, unary 1, 2);
    (unary 4, unary 3, 2);
    (unary 3, unary 4, 1);
    (unary 2, unary 3, 1);
    (unary 8, unary 9, 2);
    (unary 5, unary 5, 3);
    ("abab", "abab", 3);
    ("abab", "baba", 2);
    ("abba", "abab", 2);
    (unary 4 ^ "bbb", unary 3 ^ "bbb", 1);
    (unary 4 ^ "bbb", unary 3 ^ "bbb", 2);
    ("aaaabbb", "aaabbb", 2);
    ("ab", "aabb", 1);
    ("ab", "aabb", 2);
    ("abc", "cba", 2);
    ("aab", "abb", 3);
  ]

let label (w, v, k) = Printf.sprintf "%S vs %S @%d" w v k

(* The general engine run directly: [Game] sends unary instances to
   [Unary], so this is how unary words reach [Packed]. The caller
   guarantees the position is a partial isomorphism. *)
let packed_wins ?width ?(pairs = []) cfg k =
  let left, right = Game.structures cfg in
  let g = Packed.make_gstate left right (Game.constant_entries cfg) in
  match Packed.run_general g ~init:pairs ?width ~budget:max_int k with
  | Some v, _, _ -> v
  | None, _, _ -> Alcotest.fail "unbounded budget exhausted"

let test_general_identity () =
  (* full mode from the empty position: through [Game], cache-less and
     through one shared table, and through [Packed] directly *)
  let cache = Cache.create () in
  List.iter
    (fun ((w, v, k) as i) ->
      let cfg = Game.make w v in
      let oracle = Seed_oracle.wins cfg k in
      Alcotest.check verdict (label i) (expected oracle) (Game.decide cfg k);
      Alcotest.check verdict (label i ^ " cached") (expected oracle)
        (Game.decide ~cache cfg k);
      if Game.base_partial_iso cfg then
        Alcotest.(check bool) (label i ^ " packed") oracle (packed_wins cfg k))
    instances

let test_general_identity_budget () =
  (* a starved search may only give up: any exact verdict is the
     oracle's, and enough budget always reaches it *)
  let cfg = Game.make "aaab" "aaaab" in
  let want = expected (Seed_oracle.wins cfg 2) in
  List.iter
    (fun budget ->
      let got = Game.decide ~budget cfg 2 in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d" budget)
        true
        (got = Game.Unknown || got = want))
    [ 1; 10; 100; 1000 ];
  Alcotest.check verdict "funded" want (Game.decide ~budget:1_000_000 cfg 2)

(* every position of one played pair, plus two-pair lines, on a few
   shapes; cache-less and cached handles, and [Packed] directly *)
let played_positions (w, v) =
  let cfg = Game.make w v in
  let left, right = Game.structures cfg in
  let singles =
    List.concat_map
      (fun a -> List.map (fun b -> [ (a, b) ]) (Fc.Structure.universe right))
      (Fc.Structure.universe left)
  in
  (cfg, singles @ [ [ (w, v); ("", "") ]; [ (w, w); (v, v) ] ])

let test_played_positions () =
  List.iter
    (fun words ->
      let cfg, positions = played_positions words in
      let plain = Game.solver cfg and cached = Game.solver ~cache:(Cache.create ()) cfg in
      List.iter
        (fun pairs ->
          List.iter
            (fun k ->
              let name =
                Printf.sprintf "%S vs %S [%s] @%d" (fst words) (snd words)
                  (String.concat ";" (List.map (fun (a, b) -> a ^ "," ^ b) pairs))
                  k
              in
              let oracle = Seed_oracle.wins ~pairs cfg k in
              Alcotest.check verdict name (expected oracle)
                (Game.solver_wins plain pairs k);
              Alcotest.check verdict (name ^ " cached") (expected oracle)
                (Game.solver_wins cached pairs k);
              if Seed_oracle.wins ~pairs cfg 0 then
                Alcotest.(check bool) (name ^ " packed") oracle
                  (packed_wins ~pairs cfg k))
            [ 0; 1; 2 ])
        positions)
    [ ("abab", "baba"); ("aab", "abb"); (unary 4, unary 5); ("ab", "aabb") ]

let test_width_limited () =
  (* [Packed] must match the oracle's cut exactly; [Unary] cuts its own
     candidate order, so through [Game] unary instances are only
     checked for sound wins *)
  List.iter
    (fun ((w, v, k) as i) ->
      let cfg = Game.make w v in
      List.iter
        (fun n ->
          let mode = Game.Duplicator_limited n in
          let oracle = Seed_oracle.wins ~width:n cfg k in
          let name = Printf.sprintf "%s width %d" (label i) n in
          if Game.base_partial_iso cfg then
            Alcotest.(check bool) (name ^ " packed") oracle
              (packed_wins ~width:n cfg k);
          let plain = Game.decide ~mode cfg k in
          let cached = Game.decide ~mode ~cache:(Cache.create ()) cfg k in
          if Game.unary_of cfg = None then begin
            Alcotest.check verdict name (expected ~mode oracle) plain;
            Alcotest.check verdict (name ^ " cached") (expected ~mode oracle) cached
          end
          else
            Alcotest.(check bool) (name ^ " sound") true
              ((plain <> Game.Equiv && cached <> Game.Equiv)
              || Seed_oracle.wins cfg k))
        [ 1; 2; 3 ])
    instances

let unary_verdict (r, _, _) =
  match r with Some true -> Game.Equiv | Some false -> Game.Not_equiv | None -> Game.Unknown

let unary_oracle ?(init = []) p q k =
  let pairs = List.map (fun (l, r) -> (unary l, unary r)) init in
  expected (Seed_oracle.wins ~pairs (Game.make (unary p) (unary q)) k)

let test_unary_identity () =
  (* p = 0 rows: ε against a^q, refuted at the root on the letter
     constant (a^0 vs a^0 is not a unary instance) *)
  for p = 0 to 12 do
    for q = max p 1 to 12 do
      for k = 0 to 3 do
        Alcotest.check verdict
          (Printf.sprintf "a^%d vs a^%d @%d" p q k)
          (unary_oracle p q k)
          (unary_verdict (Unary.solve ~p ~q ~init:[] k))
      done
    done
  done;
  Alcotest.check_raises "a^0 vs a^0 refused"
    (Invalid_argument "Unary.solve: need p, q >= 0 and p + q >= 1") (fun () ->
      ignore (Unary.solve ~p:0 ~q:0 ~init:[] 2))

let test_unary_identity_init_limit () =
  (* full width must match the oracle exactly; a limited search may fail
     where Duplicator wins, but its wins are genuine *)
  let inits = [ []; [ (2, 2) ]; [ (3, 2); (2, 3) ]; [ (5, 9) ]; [ (0, 0) ]; [ (7, 8) ] ] in
  List.iter
    (fun init ->
      let want = unary_oracle ~init 7 9 3 in
      List.iter
        (fun limit ->
          let got = unary_verdict (Unary.solve ~limit ~p:7 ~q:9 ~init 3) in
          let name = Printf.sprintf "init=%d limit=%d" (List.length init) limit in
          if limit = max_int then Alcotest.check verdict name want got
          else
            Alcotest.(check bool) name true (got <> Game.Equiv || want = Game.Equiv))
        [ 1; 2; 4; max_int ])
    inits

let test_cached_unary () =
  (* one shared table across instances and round counts, at each store
     depth: table reuse must never change a verdict *)
  List.iter
    (fun store_depth ->
      let cache = Cache.create () in
      for q = 2 to 8 do
        for p = 1 to q - 1 do
          for k = 1 to 3 do
            Alcotest.check verdict
              (Printf.sprintf "a^%d vs a^%d @%d (depth %d)" p q k store_depth)
              (unary_oracle p q k)
              (unary_verdict (Unary.solve ~cache ~store_depth ~p ~q ~init:[] k))
          done
        done
      done)
    [ 0; 1; max_int ]

let test_existential_identity () =
  List.iter
    (fun ((w, v, k) as i) ->
      let cfg = Game.make w v in
      Alcotest.check verdict ("exist " ^ label i)
        (expected (Seed_oracle.wins ~existential:true cfg k))
        (Existential.decide cfg k))
    instances

let test_existential_long_words () =
  (* |w| + |v| > 4000: larger than any instance the sort-key budget
     used to admit *)
  let cfg = Game.make (unary 2001) (unary 2002) in
  Alcotest.check verdict "a^2001 into a^2002 @1"
    (expected (Seed_oracle.wins ~existential:true cfg 1))
    (Existential.decide cfg 1)

let test_scan_identity () =
  (* the minimal ≡_k pair of a frontier scan, seed and cached, against
     the first oracle-equivalent pair in (q, p) order *)
  List.iter
    (fun k ->
      let max_n = 14 in
      let rec first q p =
        if q > max_n then Witness.Exhausted max_n
        else if p = q then first (q + 1) 0
        else if Seed_oracle.wins (Game.make (unary p) (unary q)) k then
          Witness.Found (p, q)
        else first q (p + 1)
      in
      let want = first 1 0 in
      let seed, _ = Witness.scan ~k ~max_n () in
      let cached, _ = Witness.scan ~engine:(Witness.Cached (Cache.create ())) ~k ~max_n () in
      Alcotest.(check bool) (Printf.sprintf "seed scan @k=%d" k) true (seed = want);
      Alcotest.(check bool) (Printf.sprintf "cached scan @k=%d" k) true (cached = want))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Randomized *)

let gen_over letters n =
  QCheck.Gen.(
    map (fun l -> String.of_seq (List.to_seq l)) (list_repeat n (oneofl letters)))

let gen_word = QCheck.Gen.sized_size (QCheck.Gen.int_bound 6) (gen_over [ 'a'; 'b' ])

let arb_pair_k =
  QCheck.make
    ~print:(fun (w, v, k) -> Printf.sprintf "(%S, %S, %d)" w v k)
    QCheck.Gen.(
      map3 (fun w v k -> (w, v, k)) gen_word gen_word (int_range 0 2))

let qcheck_general =
  QCheck.Test.make ~count:120 ~name:"packed = oracle (random general)"
    arb_pair_k (fun (w, v, k) ->
      let cfg = Game.make w v in
      Game.decide cfg k = expected (Seed_oracle.wins cfg k))

(* The closed-form last round against the oracle at k = 1 and 2, from
   the empty position and from one random played pair (ε replies,
   squares and, under the full alphabet {a, b, c}, ⊥ constants: a letter
   missing from both words is ⊥ on both sides), cache-less and through
   one table shared by every case. The right word uses exactly the left
   word's letters and the played right element often repeats the left
   one, so most cases start from a partial isomorphism. *)
let shared_cache = Cache.create ()

(* length first, so long factors are as likely as short ones *)
let gen_factor w =
  QCheck.Gen.(
    int_bound (String.length w) >>= fun len ->
    int_bound (String.length w - len) >|= fun off -> String.sub w off len)

(* an [n]-letter left word over [letters] and a right word of about [m]
   letters over exactly the left word's letters *)
let gen_words_sized letters n m =
  QCheck.Gen.(
    gen_over letters n >>= fun w ->
    let letters = Words.Word.alphabet w in
    let extra = if letters = [] then 0 else max 0 (m - List.length letters) in
    list_repeat extra (oneofl letters) >>= fun rest ->
    shuffle_l (letters @ rest) >|= fun v ->
    (w, String.of_seq (List.to_seq v)))

(* over {a, b, c}, 8 letters at most between the two words *)
let gen_words =
  QCheck.Gen.(
    int_bound 7 >>= fun n ->
    int_bound (8 - n) >>= fun m -> gen_words_sized [ 'a'; 'b'; 'c' ] n m)

(* a played pair whose right element often repeats the left one *)
let gen_played (w, v) =
  QCheck.Gen.(
    gen_factor w >>= fun a ->
    (if Words.Word.is_factor ~factor:a v then
       frequency [ (1, gen_factor v); (1, return a) ]
     else gen_factor v)
    >|= fun b -> (a, b))

let print_played pairs =
  String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "(%S, %S)" a b) pairs)

let sigma_name full = if full then "abc" else "letters"

let config_of full w v =
  if full then Game.make ~sigma:[ 'a'; 'b'; 'c' ] w v else Game.make w v

let arb_last_round =
  QCheck.make
    ~print:(fun (w, v, full, pair, k) ->
      Printf.sprintf "(%S, %S, sigma=%s, played %s, k=%d)" w v
        (sigma_name full) (print_played [ pair ]) k)
    QCheck.Gen.(
      gen_words >>= fun (w, v) ->
      gen_played (w, v) >>= fun pair ->
      bool >>= fun full ->
      int_range 1 2 >|= fun k -> (w, v, full, pair, k))

let qcheck_last_round =
  QCheck.Test.make ~count:3000 ~name:"closed-form last round = oracle"
    arb_last_round (fun (w, v, full, pair, k) ->
      let cfg = config_of full w v in
      let root_oracle = Seed_oracle.wins cfg k in
      let pair_oracle = Seed_oracle.wins ~pairs:[ pair ] cfg k in
      let from_root = expected root_oracle and played = expected pair_oracle in
      Game.decide cfg k = from_root
      && Game.decide ~cache:shared_cache cfg k = from_root
      && Game.solver_wins (Game.solver cfg) [ pair ] k = played
      && Game.solver_wins (Game.solver ~cache:shared_cache cfg) [ pair ] k
         = played
      (* one-letter words reach the general engine only directly *)
      && ((not (Game.base_partial_iso cfg)) || packed_wins cfg k = root_oracle)
      && ((not (Seed_oracle.wins ~pairs:[ pair ] cfg 0))
         || packed_wins ~pairs:[ pair ] cfg k = pair_oracle))

(* The same from two played pairs: at k = 2 the closed form runs on
   three played entries above the constants. A wrong quotient or square
   pattern first shows on 5- and 6-letter words with long unequal played
   elements (aaaab vs aaaaab after (aaaa, aaaaa)), so at k = 1 each word
   has 5 to 8 letters (2 to 4 at k = 2, where the oracle's cost grows
   fastest), mostly over {a, b} (under the abc sigma, c is then ⊥ on
   both sides). The first pair is often the two whole words, and the
   second often repeats the first. *)
let arb_last_round_two =
  QCheck.make
    ~print:(fun (w, v, full, pairs, k) ->
      Printf.sprintf "(%S, %S, sigma=%s, played %s, k=%d)" w v
        (sigma_name full) (print_played pairs) k)
    QCheck.Gen.(
      int_range 1 2 >>= fun k ->
      let lo, hi = if k = 1 then (5, 8) else (2, 4) in
      frequency [ (3, return [ 'a'; 'b' ]); (1, return [ 'a'; 'b'; 'c' ]) ]
      >>= fun letters ->
      int_range lo hi >>= fun n ->
      int_range lo hi >>= fun m ->
      gen_words_sized letters n m >>= fun words ->
      frequency [ (1, return words); (2, gen_played words) ] >>= fun p1 ->
      frequency [ (1, return p1); (2, gen_played words) ] >>= fun p2 ->
      bool >|= fun full -> (fst words, snd words, full, [ p1; p2 ], k))

let qcheck_last_round_two =
  QCheck.Test.make ~count:5000
    ~name:"closed-form last round = oracle from two played pairs"
    arb_last_round_two (fun (w, v, full, pairs, k) ->
      let cfg = config_of full w v in
      let oracle = Seed_oracle.wins ~pairs cfg k in
      Game.solver_wins (Game.solver cfg) pairs k = expected oracle
      && ((not (Seed_oracle.wins ~pairs cfg 0))
         || packed_wins ~pairs cfg k = oracle))

(* Positions that a single pattern decides, each found by comparing the
   closed form with one pattern broken against the correct one over all
   5- and 6-letter words on {a, b}: the square test (aaaa = aa·aa, but
   aaaaa is no square), the √ closure move, and the suffix quotient
   (aaab = aaa·b, but aaba ≠ aab·a). Random pairs reach the first only
   about once in 10⁴ cases. Each is checked once played and played
   twice (two equal pairs). *)
let test_last_round_single_patterns () =
  List.iter
    (fun (w, v, pair) ->
      let cfg = Game.make w v in
      List.iter
        (fun pairs ->
          let name =
            Printf.sprintf "%S vs %S, played %s" w v (print_played pairs)
          in
          let oracle = Seed_oracle.wins ~pairs cfg 1 in
          Alcotest.check verdict name (expected oracle)
            (Game.solver_wins (Game.solver cfg) pairs 1);
          Alcotest.(check bool) (name ^ " packed") oracle
            (packed_wins ~pairs cfg 1))
        [ [ pair ]; [ pair; pair ] ])
    [
      ("aaaab", "aaaaab", ("aaaa", "aaaaa"));
      ("aabab", "aaabab", ("abab", "aabab"));
      ("aaaba", "abaaba", ("aaaba", "abaaba"));
      ("aaaaa", "aaaaaa", ("aaaaa", "aaaaaa"));
      ("aaaba", "aabaa", ("aaab", "aaba"));
    ]

let arb_unary =
  QCheck.make
    ~print:(fun (p, q, k, init) ->
      Printf.sprintf "(p=%d, q=%d, k=%d, init=[%s])" p q k
        (String.concat ";"
           (List.map (fun (l, r) -> Printf.sprintf "%d,%d" l r) init)))
    QCheck.Gen.(
      let pair = map2 (fun l r -> (l, r)) (int_bound 13) (int_bound 13) in
      map3
        (fun p q (k, init) -> (p, q, k, init))
        (int_range 1 12) (int_range 1 12)
        (map2 (fun k init -> (k, init)) (int_range 0 3)
           (list_size (int_bound 2) pair)))

let qcheck_unary =
  QCheck.Test.make ~count:300 ~name:"unary = oracle (random)" arb_unary
    (fun (p, q, k, init) ->
      unary_verdict (Unary.solve ~p ~q ~init k) = unary_oracle ~init p q k)

(* ------------------------------------------------------------------ *)
(* Arena discipline *)

let test_arena_basics () =
  let a = Arena.create ~capacity:2 () in
  Alcotest.(check int) "empty" 0 (Arena.len a);
  Arena.push a 1 2;
  Arena.push a 3 4;
  Arena.push a 5 6;
  (* grows past initial capacity *)
  Alcotest.(check int) "len" 3 (Arena.len a);
  Alcotest.(check (pair int int)) "entry 1" (3, 4) (Arena.fst_at a 1, Arena.snd_at a 1);
  Alcotest.(check (list (pair int int)))
    "to_list" [ (1, 2); (3, 4); (5, 6) ] (Arena.to_list a);
  Alcotest.(check (list (pair int int)))
    "to_list from" [ (3, 4); (5, 6) ] (Arena.to_list ~from:1 a);
  Arena.pop a;
  Alcotest.(check int) "pop" 2 (Arena.len a);
  let m = Arena.mark a in
  Arena.push a 7 8;
  Arena.push a 9 10;
  Arena.release a m;
  Alcotest.(check int) "release" 2 (Arena.len a)

let test_arena_stale_mark () =
  let a = Arena.create () in
  Arena.push a 1 1;
  Arena.push a 2 2;
  let m = Arena.mark a in
  let g = Arena.generation a in
  Arena.reset a;
  Alcotest.(check int) "generation bumped" (g + 1) (Arena.generation a);
  Alcotest.(check int) "reset empties" 0 (Arena.len a);
  (* a mark taken before the reset exceeds the emptied stack: refusing it
     is what makes cross-solve aliasing impossible *)
  Alcotest.check_raises "stale mark refused"
    (Invalid_argument "Arena.release: bad mark") (fun () -> Arena.release a m)

let test_arena_reuse_no_aliasing () =
  (* interleave distinct solves on the shared per-domain arena: each
     must reproduce its fresh-arena answer exactly (result AND node
     count), and each solve must start a new arena generation *)
  let solve_a () = Unary.solve ~p:5 ~q:7 ~init:[] 3 in
  let solve_b () = Unary.solve ~p:9 ~q:11 ~init:[ (4, 4) ] 3 in
  let solve_c () = Unary.solve ~p:2 ~q:3 ~init:[] 2 in
  let fresh_a = solve_a () and fresh_b = solve_b () and fresh_c = solve_c () in
  let g0 = Arena.generation (Packed.scratch_arena ()) in
  Alcotest.(check bool) "a replays" true (solve_a () = fresh_a);
  Alcotest.(check bool) "b replays" true (solve_b () = fresh_b);
  Alcotest.(check bool) "a replays after b" true (solve_a () = fresh_a);
  Alcotest.(check bool) "c replays" true (solve_c () = fresh_c);
  Alcotest.(check bool) "b replays after c" true (solve_b () = fresh_b);
  let g1 = Arena.generation (Packed.scratch_arena ()) in
  Alcotest.(check int) "one generation per solve" (g0 + 5) g1

let test_settled_roots () =
  (* a root settled by the closed form or by the table counts its one
     node and builds no memo; a searched root builds one *)
  let fresh = Unary.solve ~p:9 ~q:11 ~init:[] 3 in
  List.iter
    (fun (p, q) ->
      let r, nodes, memo = Unary.solve ~p ~q ~init:[] 1 in
      Alcotest.check verdict (Printf.sprintf "a^%d vs a^%d @1" p q)
        (unary_oracle p q 1) (unary_verdict (r, nodes, memo));
      Alcotest.(check (pair int int)) "k0 = 1: one node, no memo" (1, 0)
        (nodes, memo))
    [ (3, 4); (2, 3); (5, 9) ];
  let cache = Cache.create () in
  let r, _, memo = Unary.solve ~cache ~p:9 ~q:11 ~init:[] 3 in
  Alcotest.(check bool) "searched root builds a memo" true (memo > 0);
  let hits0 = (Cache.stats cache).Cache.hits in
  let r', nodes', memo' = Unary.solve ~cache ~p:9 ~q:11 ~init:[] 3 in
  Alcotest.(check bool) "table root: same verdict" true (r' = r);
  Alcotest.(check (pair int int)) "table root: one node, no memo" (1, 0)
    (nodes', memo');
  Alcotest.(check int) "table root: one hit" (hits0 + 1)
    (Cache.stats cache).Cache.hits;
  (* settled roots share the arena with searched ones without
     perturbing them *)
  Alcotest.(check bool) "search replays after settled roots" true
    (Unary.solve ~p:9 ~q:11 ~init:[] 3 = fresh)

let test_general_last_round_nodes () =
  (* the closed form settles the last round without visiting its
     leaves: a 1-round general game is one node, and a 2-round one
     visits the root and its k = 1 children only *)
  List.iter
    (fun (w, v) ->
      let cfg = Game.make w v in
      let got, st = Game.decide_with_stats cfg 1 in
      Alcotest.check verdict (w ^ " vs " ^ v ^ " @1")
        (expected (Seed_oracle.wins cfg 1))
        got;
      Alcotest.(check int) (w ^ " vs " ^ v ^ " @1 nodes") 1 st.Game.nodes)
    [ ("abab", "baba"); ("aab", "abb"); ("abcab", "abcba"); ("ab", "aabb") ];
  let by_k () =
    match List.assoc_opt "game.nodes_by_k" (Obs.Metrics.snapshot ()) with
    | Some (Obs.Metrics.Vec v) -> Array.copy v
    | _ -> Alcotest.fail "game.nodes_by_k not registered"
  in
  Obs.Metrics.enable ();
  let before = by_k () in
  let _, st =
    Fun.protect ~finally:Obs.Metrics.disable (fun () ->
        Game.decide_with_stats (Game.make "abab" "baba") 2)
  in
  let delta = Array.mapi (fun i n -> n - before.(i)) (by_k ()) in
  Alcotest.(check int) "no k = 0 leaf counted" 0 delta.(0);
  Alcotest.(check bool) "k = 1 nodes counted" true (delta.(1) > 0);
  Alcotest.(check int) "buckets sum to nodes" st.Game.nodes
    (Array.fold_left ( + ) 0 delta)

let test_last_round_counters () =
  (* one bump per losing closed-form call, by how it lost: "ab" vs "ba"
     refutes the closure move ab (b·a is no factor of "ab"); after (ab,
     ab), both closures survive but only "abb"'s covers every factor *)
  let count name =
    match List.assoc_opt name (Obs.Metrics.snapshot ()) with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> Alcotest.fail (name ^ " not registered")
  in
  let counts () =
    (count "game.last_round.refuted", count "game.last_round.generic_mismatch")
  in
  let refuted () = Game.solver_wins (Game.solver (Game.make "ab" "ba")) [] 1 in
  let mismatch () =
    Game.solver_wins (Game.solver (Game.make "abb" "abbb")) [ ("ab", "ab") ] 1
  in
  let delta run =
    let r0, g0 = counts () in
    Alcotest.check verdict "Not_equiv" Game.Not_equiv (run ());
    let r1, g1 = counts () in
    (r1 - r0, g1 - g0)
  in
  Obs.Metrics.enable ();
  let on_refuted, on_mismatch =
    Fun.protect ~finally:Obs.Metrics.disable (fun () ->
        (delta refuted, delta mismatch))
  in
  Alcotest.(check (pair int int)) "refuted" (1, 0) on_refuted;
  Alcotest.(check (pair int int)) "generic mismatch" (0, 1) on_mismatch;
  Alcotest.(check (pair int int)) "disabled: refuted" (0, 0) (delta refuted);
  Alcotest.(check (pair int int)) "disabled: mismatch" (0, 0) (delta mismatch)

let test_arena_isolated_across_engines () =
  (* general and existential solves between two runs of the same
     general solve, all on the one arena, must not perturb its answer *)
  let solve () =
    Game.decide_with_stats ~budget:1_000_000 (Game.make "abab" "baba") 2
  in
  let before = solve () in
  let _ = Unary.solve ~p:7 ~q:9 ~init:[] 3 in
  let _ = Game.decide_with_stats (Game.make "aab" "abb") 2 in
  let _ = Existential.equiv "ab" "aabb" 2 in
  Alcotest.(check bool) "general solve unperturbed" true (solve () = before)

let tests =
  ( "packed_engine",
    [
      Alcotest.test_case "general identity (corpus)" `Quick
        test_general_identity;
      Alcotest.test_case "general identity under budgets" `Quick
        test_general_identity_budget;
      Alcotest.test_case "played positions = oracle" `Quick
        test_played_positions;
      Alcotest.test_case "width-limited = oracle" `Quick test_width_limited;
      Alcotest.test_case "unary identity (grid)" `Quick test_unary_identity;
      Alcotest.test_case "unary identity (init, limit)" `Quick
        test_unary_identity_init_limit;
      Alcotest.test_case "cached unary = oracle" `Quick test_cached_unary;
      Alcotest.test_case "existential identity" `Quick
        test_existential_identity;
      Alcotest.test_case "existential past the old size cap" `Quick
        test_existential_long_words;
      Alcotest.test_case "scan identity" `Slow test_scan_identity;
      QCheck_alcotest.to_alcotest qcheck_general;
      QCheck_alcotest.to_alcotest qcheck_unary;
      QCheck_alcotest.to_alcotest qcheck_last_round;
      Alcotest.test_case "general k = 1 roots visit one node" `Quick
        test_general_last_round_nodes;
      Alcotest.test_case "arena basics" `Quick test_arena_basics;
      Alcotest.test_case "arena stale mark refused" `Quick
        test_arena_stale_mark;
      Alcotest.test_case "arena reuse, no stale aliasing" `Quick
        test_arena_reuse_no_aliasing;
      Alcotest.test_case "settled roots build nothing" `Quick
        test_settled_roots;
      Alcotest.test_case "arena isolated across engines" `Quick
        test_arena_isolated_across_engines;
      QCheck_alcotest.to_alcotest qcheck_last_round_two;
      Alcotest.test_case "last round decided by one pattern = oracle" `Quick
        test_last_round_single_patterns;
      Alcotest.test_case "last-round outcome counters" `Quick
        test_last_round_counters;
    ] )
