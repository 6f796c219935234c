open Spanner

let check = Alcotest.(check bool)
let rf = Regex_formula.parse_exn
let docs = Words.Word.enumerate ~alphabet:[ 'a'; 'b' ] ~max_len:4

let agree_on_docs name automaton expr =
  List.iter
    (fun doc ->
      let via_automaton = Vset_automaton.eval automaton doc in
      let via_relations = Algebra.eval expr doc in
      if not (Relation.equal via_automaton via_relations) then
        Alcotest.failf "%s: automaton/relation disagree on %S" name doc)
    docs

let test_union () =
  let f1 = rf "x{a*}" and f2 = rf "x{b*}" in
  let va = Vset_algebra.union (Regex_formula.compile f1) (Regex_formula.compile f2) in
  agree_on_docs "union" va (Algebra.Union (Algebra.Extract f1, Algebra.Extract f2))

let test_union_schema_mismatch () =
  Alcotest.check_raises "different vars"
    (Invalid_argument "Vset_algebra.union: different variable sets") (fun () ->
      ignore
        (Vset_algebra.union
           (Regex_formula.compile (rf "x{a*}"))
           (Regex_formula.compile (rf "y{a*}"))))

let test_project () =
  let f = rf "x{a*}y{b*}" in
  let va = Vset_algebra.project [ "x" ] (Regex_formula.compile f) in
  agree_on_docs "project" va (Algebra.Project ([ "x" ], Algebra.Extract f))

let test_join_disjoint_vars () =
  (* no shared variables: cartesian combination on the same document *)
  let f1 = rf "x{a*}(a|b)*" and f2 = rf "(a|b)*y{b*}" in
  let va =
    Vset_algebra.join (Regex_formula.compile f1) (Regex_formula.compile f2)
  in
  agree_on_docs "join disjoint" va (Algebra.Join (Algebra.Extract f1, Algebra.Extract f2))

let test_join_shared_var () =
  (* shared x: both must carve out the same span *)
  let f1 = rf "x{a*}(a|b)*" and f2 = rf "x{a*}b*" in
  let va =
    Vset_algebra.join (Regex_formula.compile f1) (Regex_formula.compile f2)
  in
  agree_on_docs "join shared" va (Algebra.Join (Algebra.Extract f1, Algebra.Extract f2))

let test_join_any () =
  (* any-letter loops pair with letters and with each other *)
  let wrap f = Regex_formula.Cat (rf "(a|b)*", Regex_formula.Cat (f, rf "(a|b)*")) in
  let f1 = rf "x{a}" and f2 = rf "y{ba}" in
  let va =
    Vset_algebra.join
      (Vset_automaton.anywhere (Regex_formula.compile f1))
      (Vset_automaton.anywhere (Regex_formula.compile f2))
  in
  agree_on_docs "join any" va (Algebra.Join (Algebra.Extract (wrap f1), Algebra.Extract (wrap f2)))

let test_of_algebra () =
  let e =
    Algebra.Project
      ( [ "x" ],
        Algebra.Union
          ( Algebra.Extract (rf "x{a*}y{b*}"),
            Algebra.Extract (rf "x{b*}y{a*}") ) )
  in
  match Vset_algebra.of_algebra e with
  | None -> Alcotest.fail "expected compilation"
  | Some va -> agree_on_docs "of_algebra" va e

let test_of_algebra_rejects () =
  check "select_eq not regular" true
    (Vset_algebra.of_algebra
       (Algebra.Select_eq ("x", "y", Algebra.Extract (rf "x{a*}y{a*}")))
    = None)

let test_recognizable () =
  let r =
    Vset_algebra.Recognizable.union
      (Vset_algebra.Recognizable.product
         [ Regex_engine.Regex.parse_exn "a*"; Regex_engine.Regex.parse_exn "b*" ])
      (Vset_algebra.Recognizable.product
         [ Regex_engine.Regex.parse_exn "b+"; Regex_engine.Regex.parse_exn "a+" ])
  in
  check "holds first" true (Vset_algebra.Recognizable.holds r [ "aa"; "b" ]);
  check "holds second" true (Vset_algebra.Recognizable.holds r [ "bb"; "a" ]);
  check "fails" false (Vset_algebra.Recognizable.holds r [ "ab"; "b" ])

let test_recognizable_selection_equals_zeta () =
  (* ζ^R via joins = ζ^R via the oracle operator, for recognizable R *)
  let r =
    Vset_algebra.Recognizable.product
      [ Regex_engine.Regex.parse_exn "a*"; Regex_engine.Regex.parse_exn "(ba)*" ]
  in
  let oracle =
    Selectable.make ~name:"rec" ~arity:2 (fun tuple -> Vset_algebra.Recognizable.holds r tuple)
  in
  let base = Algebra.Extract (rf "x{(a|b)*}y{(a|b)*}") in
  let via_joins = Vset_algebra.Recognizable.selection r [ "x"; "y" ] base in
  let via_zeta = Algebra.Select_rel (oracle, [ "x"; "y" ], base) in
  check "no zeta^R operator left" true (Algebra.is_generalized_core via_joins);
  List.iter
    (fun doc ->
      if not (Relation.equal (Algebra.eval via_joins doc) (Algebra.eval via_zeta doc)) then
        Alcotest.failf "recognizable selection differs on %S" doc)
    (Words.Word.enumerate ~alphabet:[ 'a'; 'b' ] ~max_len:4)

let tests =
  ( "vset-algebra",
    [
      Alcotest.test_case "union" `Quick test_union;
      Alcotest.test_case "union schema mismatch" `Quick test_union_schema_mismatch;
      Alcotest.test_case "projection" `Quick test_project;
      Alcotest.test_case "join, disjoint variables" `Quick test_join_disjoint_vars;
      Alcotest.test_case "join, shared variable" `Quick test_join_shared_var;
      Alcotest.test_case "join, any-letter loops" `Quick test_join_any;
      Alcotest.test_case "algebra compilation" `Quick test_of_algebra;
      Alcotest.test_case "non-regular rejected" `Quick test_of_algebra_rejects;
      Alcotest.test_case "recognizable relations" `Quick test_recognizable;
      Alcotest.test_case "recognizable ζ^R needs no oracle" `Quick
        test_recognizable_selection_equals_zeta;
    ] )
