open Efgame

let check = Alcotest.(check bool)

let test_minimal_pairs () =
  (match Witness.minimal_pair ~k:1 ~max_n:6 () with
  | Witness.Found (p, q) -> Alcotest.(check (pair int int)) "k=1" (3, 4) (p, q)
  | _ -> Alcotest.fail "expected (3,4)");
  match Witness.minimal_pair ~k:2 ~max_n:14 () with
  | Witness.Found (p, q) -> Alcotest.(check (pair int int)) "k=2" (12, 14) (p, q)
  | _ -> Alcotest.fail "expected (12,14)"

let test_exhausted () =
  match Witness.minimal_pair ~k:2 ~max_n:8 () with
  | Witness.Exhausted n -> Alcotest.(check int) "bound" 8 n
  | Witness.Found (p, q) -> Alcotest.failf "unexpected pair (%d,%d)" p q
  | Witness.Inconclusive _ -> Alcotest.fail "unexpected budget exhaustion"
  | Witness.Interrupted _ -> Alcotest.fail "unexpected interruption"

(* a scan stopped mid-flight reports Interrupted and leaves the cache in
   a state from which an un-stopped rerun reaches the tableless verdict *)
let test_interrupted_resume () =
  let cache = Cache.create () in
  let polls = ref 0 in
  let stop () =
    incr polls;
    !polls > 40
  in
  let outcome, _ =
    Witness.scan ~engine:(Witness.Cached cache) ~stop ~k:2 ~max_n:20 ()
  in
  (match outcome with
  | Witness.Interrupted _ -> ()
  | _ -> Alcotest.fail "expected an interrupted scan");
  let tableless = Witness.minimal_pair ~k:2 ~max_n:20 () in
  let resumed, _ =
    Witness.scan ~engine:(Witness.Cached cache) ~k:2 ~max_n:20 ()
  in
  check "resumed scan agrees with a fresh one" true (resumed = tableless)

let test_classes_k1 () =
  match Witness.classes ~k:1 ~max_n:7 () with
  | None -> Alcotest.fail "expected classes"
  | Some classes ->
      (* k=1 distinguishes 0,1,2 and merges everything from 3 on *)
      Alcotest.(check (list (list int)))
        "classes" [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3; 4; 5; 6; 7 ] ] classes

let test_verify () =
  check "verify (3,4)" true (Witness.verify_pair ~k:1 3 4 = Game.Equiv);
  check "sound mode agrees" true (Witness.verify_pair_sound ~k:1 3 4 = Game.Equiv);
  check "sound mode never lies" true (Witness.verify_pair_sound ~k:1 2 3 <> Game.Equiv)

(* ε pairs under the table engines go to the arithmetic solver, which
   refutes their root on the letter constant: the tableless verdict, no
   table entry, no table access, no node *)
let test_epsilon_pairs () =
  let cached = Cache.create () and parallel = Cache.create () in
  for q = 1 to 12 do
    for k = 0 to 3 do
      let tableless = Witness.verify_pair ~k 0 q in
      List.iter
        (fun (name, engine) ->
          check
            (Printf.sprintf "%s agrees with tableless on (0, %d) at k=%d" name
               q k)
            true
            (Witness.verify_pair ~engine ~k 0 q = tableless
            && Witness.verify_pair ~engine ~k q 0 = tableless))
        [
          ("cached", Witness.Cached cached);
          ("parallel", Witness.Parallel (parallel, 2));
        ]
    done
  done;
  List.iter
    (fun c ->
      let st = Cache.stats c in
      Alcotest.(check (list int)) "no entry, hit, miss or store" [ 0; 0; 0; 0 ]
        [ st.Cache.entries; st.Cache.hits; st.Cache.misses; st.Cache.stores ])
    [ cached; parallel ];
  for q = 1 to 12 do
    let t = Witness.index_of_pair 0 q in
    let _, st =
      Witness.scan ~engine:(Witness.Cached cached) ~range:(t, t + 1) ~k:3
        ~max_n:12 ()
    in
    Alcotest.(check (list int))
      (Printf.sprintf "scan of (0, %d): one pair, no node, no lookup" q)
      [ 1; 0; 0; 0 ]
      [ st.Witness.pairs; st.Witness.nodes; st.Witness.cache_hits;
        st.Witness.cache_misses ]
  done

let test_triangle_indexing () =
  (* pair_of_index is the exact inverse of index_of_pair over the whole
     scanned range, and the linearization is (q, p)-lexicographic *)
  let t = ref 0 in
  for q = 1 to 60 do
    for p = 0 to q - 1 do
      Alcotest.(check int)
        (Printf.sprintf "index of (%d,%d)" p q)
        !t
        (Witness.index_of_pair p q);
      Alcotest.(check (pair int int))
        (Printf.sprintf "pair of %d" !t)
        (p, q)
        (Witness.pair_of_index !t);
      incr t
    done
  done

(* every engine must agree with the tableless scan on outcomes — the
   scheduler and the transposition table are both speed-only *)
let engines () =
  [
    ("cached", Witness.Cached (Cache.create ()));
    ("parallel j=2", Witness.Parallel (Cache.create (), 2));
    ("parallel j=3", Witness.Parallel (Cache.create (), 3));
  ]

let test_scan_engine_agreement () =
  List.iter
    (fun (k, max_n) ->
      let tableless = Witness.minimal_pair ~k ~max_n () in
      List.iter
        (fun (name, engine) ->
          let got = Witness.minimal_pair ~engine ~k ~max_n () in
          check
            (Printf.sprintf "%s agrees with tableless at k=%d n<=%d" name k
               max_n)
            true (got = tableless))
        (engines ()))
    [ (1, 6); (1, 3); (2, 14); (2, 8); (3, 24) ]

(* a scan stores only root verdicts, and a cold scan never revisits a
   root at the same round count, so the table changes no search: with
   and without one the scan decides the same pairs with the same nodes,
   and without one it makes no table lookup *)
let test_scan_tableless_matches_cached () =
  List.iter
    (fun (k, max_n) ->
      let label what = Printf.sprintf "%s at k=%d n<=%d" what k max_n in
      let outcome, st = Witness.scan ~k ~max_n () in
      let outcome', st' =
        Witness.scan ~engine:(Witness.Cached (Cache.create ())) ~k ~max_n ()
      in
      check (label "same outcome") true (outcome = outcome');
      Alcotest.(check (pair int int))
        (label "same pairs and nodes")
        (st'.Witness.pairs, st'.Witness.nodes)
        (st.Witness.pairs, st.Witness.nodes);
      Alcotest.(check (pair int int))
        (label "no table traffic without a table")
        (0, 0)
        (st.Witness.cache_hits, st.Witness.cache_misses))
    [ (2, 14); (3, 24) ]

let test_scan_stats () =
  let cache = Cache.create () in
  let outcome, stats =
    Witness.scan ~engine:(Witness.Cached cache) ~k:2 ~max_n:14 ()
  in
  check "found (12,14)" true (outcome = Witness.Found (12, 14));
  (* early exit: index_of_pair 12 14 = 103, so at most 105 = full
     triangle of 14 pairs run, and at least the 104 at or below the
     witness *)
  Alcotest.(check int) "pairs ≥ witness index + 1" 104
    (min 104 stats.Witness.pairs);
  check "pairs ≤ triangle" true (stats.Witness.pairs <= 105);
  check "nodes counted" true (stats.Witness.nodes > 0);
  check "chunks counted" true (stats.Witness.chunks > 0)

(* windowed scans: disjoint ranges cover the triangle exactly, the
   window containing the witness finds it, the one below exhausts, and
   the incremental-frontier split (resume from a proven bound) agrees
   with the full scan *)
let test_scan_range () =
  let max_n = 20 in
  let total = max_n * (max_n + 1) / 2 in
  let witness_t = Witness.index_of_pair 12 14 in
  (* the window below the witness is exhausted... *)
  let below, stats =
    Witness.scan
      ~engine:(Witness.Cached (Cache.create ()))
      ~range:(0, witness_t) ~k:2 ~max_n ()
  in
  check "window below the witness exhausts" true
    (match below with Witness.Exhausted _ -> true | _ -> false);
  Alcotest.(check int) "window pair count" witness_t stats.Witness.pairs;
  (* ...and the window from the witness on finds it *)
  let above, _ =
    Witness.scan
      ~engine:(Witness.Cached (Cache.create ()))
      ~range:(witness_t, total) ~k:2 ~max_n ()
  in
  check "window from the witness finds it" true
    (above = Witness.Found (12, 14));
  (* incremental frontier: q ≤ 13 proven clean, scan only the new pairs *)
  let frontier_13 = 13 * 14 / 2 in
  let incr, _ =
    Witness.scan
      ~engine:(Witness.Cached (Cache.create ()))
      ~range:(frontier_13, total) ~k:2 ~max_n ()
  in
  check "incremental window agrees with the full scan" true
    (incr = Witness.Found (12, 14));
  (* an empty window is a no-op exhaustion *)
  let empty, stats =
    Witness.scan
      ~engine:(Witness.Cached (Cache.create ()))
      ~range:(5, 5) ~k:2 ~max_n ()
  in
  check "empty window exhausts" true
    (match empty with Witness.Exhausted _ -> true | _ -> false);
  Alcotest.(check int) "empty window scans nothing" 0 stats.Witness.pairs;
  (* out-of-triangle windows are rejected *)
  (try
     ignore (Witness.scan ~range:(0, total + 1) ~k:2 ~max_n ());
     Alcotest.fail "oversized range accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Witness.scan ~range:(-1, 4) ~k:2 ~max_n ());
    Alcotest.fail "negative range accepted"
  with Invalid_argument _ -> ()

let test_scan_range_sharded_cover () =
  (* splitting the triangle into disjoint windows and merging the shard
     caches reproduces the single-scan frontier exactly — the property
     lib/dist's merge rests on. An exhausted scan (no early exit) keeps
     the covered pair set deterministic on both sides. *)
  let max_n = 8 in
  let total = max_n * (max_n + 1) / 2 in
  let frontiers cache =
    Cache.fold cache ~init:[] ~f:(fun acc key ~win ~lose ->
        if win >= 0 || lose < max_int then (key, win, lose) :: acc else acc)
    |> List.sort compare
  in
  let whole = Cache.create () in
  ignore (Witness.scan ~engine:(Witness.Cached whole) ~k:2 ~max_n ());
  let merged = Cache.create () in
  let shard = (total + 2) / 3 in
  for i = 0 to 2 do
    let lo = min total (i * shard) and hi = min total ((i + 1) * shard) in
    let c = Cache.create () in
    ignore (Witness.scan ~engine:(Witness.Cached c) ~range:(lo, hi) ~k:2 ~max_n ());
    List.iter
      (fun (key, win, lose) ->
        if win >= 0 then Cache.store merged key ~k:win true;
        if lose < max_int then Cache.store merged key ~k:lose false)
      (frontiers c)
  done;
  check "sharded windows merge to the single-scan frontier" true
    (frontiers whole = frontiers merged)

let test_classes_engine_agreement () =
  let tableless = Witness.classes ~k:1 ~max_n:7 () in
  List.iter
    (fun (name, engine) ->
      check
        (Printf.sprintf "classes via %s" name)
        true
        (Witness.classes ~engine ~k:1 ~max_n:7 () = tableless))
    (engines ());
  let tableless_w =
    Witness.classes_words ~sigma:[ 'a'; 'b' ] ~k:1 ~max_len:3 ()
  in
  List.iter
    (fun (name, engine) ->
      check
        (Printf.sprintf "word classes via %s" name)
        true
        (Witness.classes_words ~engine ~sigma:[ 'a'; 'b' ] ~k:1 ~max_len:3 ()
        = tableless_w))
    (engines ())

let test_classes_many_classes () =
  (* ≡₂ on a^0..a^16 has 14 classes — exercises the growable
     representative array past its initial capacity *)
  match Witness.classes ~k:2 ~max_n:16 () with
  | None -> Alcotest.fail "expected classes"
  | Some classes ->
      Alcotest.(check int) "class count" 14 (List.length classes);
      check "threshold then parity" true
        (List.mem [ 12; 14; 16 ] classes && List.mem [ 13; 15 ] classes)

let tests =
  ( "witness",
    [
      Alcotest.test_case "minimal pairs" `Quick test_minimal_pairs;
      Alcotest.test_case "exhausted scan" `Quick test_exhausted;
      Alcotest.test_case "interrupted scan resumes from its cache" `Quick
        test_interrupted_resume;
      Alcotest.test_case "equivalence classes k=1" `Quick test_classes_k1;
      Alcotest.test_case "verification modes" `Quick test_verify;
      Alcotest.test_case "ε pairs: seed verdicts, no table traffic" `Quick
        test_epsilon_pairs;
      Alcotest.test_case "triangle indexing round-trips" `Quick
        test_triangle_indexing;
      Alcotest.test_case "scan: all engines agree with seed" `Quick
        test_scan_engine_agreement;
      Alcotest.test_case "scan: tableless and cached match on pairs and nodes"
        `Quick test_scan_tableless_matches_cached;
      Alcotest.test_case "scan statistics are coherent" `Quick test_scan_stats;
      Alcotest.test_case "windowed scans: split, find, resume, reject" `Quick
        test_scan_range;
      Alcotest.test_case "disjoint windows merge to the full frontier" `Quick
        test_scan_range_sharded_cover;
      Alcotest.test_case "classes: all engines agree with seed" `Quick
        test_classes_engine_agreement;
      Alcotest.test_case "classes past the initial array capacity" `Quick
        test_classes_many_classes;
    ] )
