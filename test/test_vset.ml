open Spanner

let check = Alcotest.(check bool)
let docs = Words.Word.enumerate ~alphabet:[ 'a'; 'b' ] ~max_len:5

let relation_agrees src =
  let rf = Regex_formula.parse_exn src in
  let va = Regex_formula.compile rf in
  List.iter
    (fun doc ->
      let via_formula = Spanner_oracle.eval rf doc in
      let via_automaton = Vset_automaton.eval va doc in
      if not (Relation.equal via_formula via_automaton) then
        Alcotest.failf "%s: formula/automaton disagree on %S" src doc)
    docs

let test_agreement_simple () = relation_agrees "x{a*}y{b*}"
let test_agreement_anywhere () = relation_agrees "(a|b)*x{ab}(a|b)*"
let test_agreement_nested () = relation_agrees "x{a y{b*} a}"
let test_agreement_alt () = relation_agrees "x{aa}|x{bb}"
let test_agreement_varfree () = relation_agrees "(ab)*"

let test_functionality () =
  let functional src expected =
    let va = Regex_formula.compile (Regex_formula.parse_exn src) in
    if Vset_automaton.is_functional va <> expected then
      Alcotest.failf "functionality of %s: expected %b" src expected
  in
  functional "x{a*}y{b*}" true;
  functional "x{a}|x{b}" true;
  functional "x{a}|b" false;
  (* alternation binding x on one side only *)
  functional "(x{a})*" false (* the star may skip the binding *)

let test_hand_built () =
  (* ⊢x a x⊣ b : extracts the a-span before a b *)
  let va =
    Vset_automaton.make ~states:5 ~start:0 ~accepting:[ 4 ]
      ~transitions:
        [
          (0, Vset_automaton.Open "x", 1);
          (1, Vset_automaton.Read 'a', 2);
          (2, Vset_automaton.Close "x", 3);
          (3, Vset_automaton.Read 'b', 4);
        ]
  in
  check "functional" true (Vset_automaton.is_functional va);
  let rel = Vset_automaton.eval va "ab" in
  Alcotest.(check (list (list string)))
    "span content"
    [ [ "a" ] ]
    (Relation.to_word_tuples ~doc:"ab" ~vars:[ "x" ] rel);
  check "rejects other docs" true (Relation.is_empty (Vset_automaton.eval va "ba"))

let test_incomplete_runs_dropped () =
  (* an automaton that can accept without closing x yields no row for that
     run and is flagged non-functional *)
  let va =
    Vset_automaton.make ~states:2 ~start:0 ~accepting:[ 0; 1 ]
      ~transitions:[ (0, Vset_automaton.Open "x", 1) ]
  in
  check "non functional" false (Vset_automaton.is_functional va);
  check "no rows" true (Relation.is_empty (Vset_automaton.eval va ""))

let test_eps_cycle_ops () =
  (* an Open on an ε-cycle: enumeration terminates, and since x is never
     closed no run yields a row *)
  let open_loop =
    Vset_automaton.make ~states:1 ~start:0 ~accepting:[ 0 ] ~transitions:[ (0, Vset_automaton.Open "x", 0) ]
  in
  check "open loop, empty doc" true (Relation.is_empty (Vset_automaton.eval open_loop ""));
  check "open loop, any doc" true
    (Relation.is_empty (Vset_automaton.eval (Vset_automaton.anywhere open_loop) "ab"));
  (* an ε-cycle that opens and closes x: the one valid run goes round once *)
  let round =
    Vset_automaton.make ~states:2 ~start:0 ~accepting:[ 0 ]
      ~transitions:[ (0, Vset_automaton.Open "x", 1); (1, Vset_automaton.Close "x", 0) ]
  in
  Alcotest.(check (list (list string))) "one round" [ [ "" ] ]
    (Relation.to_word_tuples ~doc:"" ~vars:[ "x" ] (Vset_automaton.eval round ""))

let test_run_count () =
  (* (a|a) ambiguity merges into one row; distinct spans stay distinct *)
  let rf = Regex_formula.parse_exn "x{a}|x{a}" in
  let va = Regex_formula.compile rf in
  Alcotest.(check int) "merged configurations" 1 (Relation.cardinality (Vset_automaton.eval va "a"));
  (* note: "ax{a}" would parse as a binding named "ax"; parenthesize *)
  let rf2 = Regex_formula.parse_exn "x{a}a|(a)x{a}" in
  let va2 = Regex_formula.compile rf2 in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality (Vset_automaton.eval va2 "aa"))

let test_metrics () =
  let total name =
    match List.assoc_opt name (Obs.Metrics.snapshot ()) with Some v -> Obs.Metrics.total v | None -> 0
  in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
    (fun () ->
      (* a formula no other test compiles, so the first call misses *)
      let f = Regex_formula.parse_exn "metrics_probe{ab|ba}" in
      ignore (Regex_formula.matches_anywhere f "aabba");
      ignore (Regex_formula.matches_anywhere f "abab");
      Alcotest.(check int) "one compile" 1 (total "spanner.compiles");
      check "nodes counted" true (total "spanner.run_nodes" > 0))

(* Random functional formulas over {a, b} that bind exactly [vs]: nested
   bindings, disjoint concatenations, ambiguous alternations such as
   x{(a|a)}, and variable-free stars, Empty and Eps. *)
let rec gen_formula vs depth =
  let open QCheck.Gen in
  let open Regex_formula in
  let sub vs = gen_formula vs (max 0 (depth - 1)) in
  let cat l r = map2 (fun a b -> Cat (a, b)) (sub l) (sub r) in
  let leaf = frequencyl [ (1, Empty); (2, Eps); (4, Char 'a'); (4, Char 'b') ] in
  let alts () = [ (2, map2 (fun a b -> Alt (a, b)) (sub vs) (sub vs)); (1, map (fun a -> Alt (a, a)) (sub vs)) ] in
  match vs with
  | [] when depth = 0 -> leaf
  | [] -> frequency ([ (3, leaf); (2, cat [] []); (1, map (fun a -> Star a) (sub [])) ] @ alts ())
  | x :: rest when depth = 0 -> map (fun a -> Bind (x, a)) (sub rest)
  | x :: rest ->
      let split =
        int_bound (List.length vs) >>= fun k ->
        cat (List.filteri (fun i _ -> i < k) vs) (List.filteri (fun i _ -> i >= k) vs)
      in
      frequency ([ (3, map (fun a -> Bind (x, a)) (sub rest)); (3, split) ] @ alts ())

let arb_formula =
  QCheck.make ~print:(Format.asprintf "%a" Regex_formula.pp)
    QCheck.Gen.(oneofl [ []; [ "x" ]; [ "x"; "y" ] ] >>= fun vs -> int_range 1 4 >>= gen_formula vs)

let small_docs = Words.Word.enumerate ~alphabet:[ 'a'; 'b' ] ~max_len:6

let agrees_on_docs what engine oracle f =
  List.for_all
    (fun doc ->
      Relation.equal (engine f doc) (oracle f doc)
      || QCheck.Test.fail_reportf "%s disagrees with the oracle on %S" what doc)
    small_docs

let prop_eval_oracle =
  QCheck.Test.make ~count:200 ~name:"eval = memoized oracle, |doc| <= 6" arb_formula
    (agrees_on_docs "eval" Regex_formula.eval Spanner_oracle.eval)

let prop_anywhere_oracle =
  QCheck.Test.make ~count:200 ~name:"matches_anywhere = oracle's Σ*·γ·Σ*, |doc| <= 6" arb_formula
    (agrees_on_docs "matches_anywhere" Regex_formula.matches_anywhere Spanner_oracle.anywhere)

let prop_to_fc =
  (* FC evaluation shares no automaton code with the engine; it is the
     slow side, so documents stop at length 5 *)
  QCheck.Test.make ~count:100 ~name:"selected words = FC relation of To_fc.compile, |doc| <= 5"
    arb_formula (fun f ->
      match To_fc.compile f with
      | None -> true
      | Some phi ->
          let vars = Regex_formula.vars f in
          List.for_all
            (fun doc ->
              Algebra.selected_words (Algebra.Extract f) ~vars doc
              = Fc.Eval.relation (Fc.Structure.make ~sigma:[ 'a'; 'b' ] doc) phi ~vars
              || QCheck.Test.fail_reportf "FC relation differs on %S" doc)
            (List.filter (fun d -> String.length d <= 5) small_docs))

let test_bad_state () =
  Alcotest.check_raises "state range" (Invalid_argument "Vset_automaton.make: state out of range")
    (fun () ->
      ignore
        (Vset_automaton.make ~states:1 ~start:0 ~accepting:[ 2 ] ~transitions:[]))

let tests =
  ( "vset-automata",
    [
      Alcotest.test_case "formula/automaton agreement: chain" `Quick test_agreement_simple;
      Alcotest.test_case "agreement: anywhere" `Quick test_agreement_anywhere;
      Alcotest.test_case "agreement: nested" `Quick test_agreement_nested;
      Alcotest.test_case "agreement: alternation" `Quick test_agreement_alt;
      Alcotest.test_case "agreement: variable-free" `Quick test_agreement_varfree;
      Alcotest.test_case "functionality" `Quick test_functionality;
      Alcotest.test_case "hand built" `Quick test_hand_built;
      Alcotest.test_case "incomplete runs dropped" `Quick test_incomplete_runs_dropped;
      Alcotest.test_case "run counting" `Quick test_run_count;
      Alcotest.test_case "operations on an ε-cycle" `Quick test_eps_cycle_ops;
      Alcotest.test_case "metrics" `Quick test_metrics;
      QCheck_alcotest.to_alcotest prop_eval_oracle;
      QCheck_alcotest.to_alcotest prop_anywhere_oracle;
      QCheck_alcotest.to_alcotest prop_to_fc;
      Alcotest.test_case "validation" `Quick test_bad_state;
    ] )
