open Fc

let check = Alcotest.(check bool)
let v = Term.var

let member ?sigma f w = Eval.language_member ?sigma f w

let test_atoms () =
  let st = Structure.make "aba" in
  check "concat holds" true (Eval.holds ~env:[ ("x", "ab"); ("y", "a"); ("z", "b") ] st
                               (Formula.eq (v "x") (v "y") (v "z")));
  check "concat fails" false (Eval.holds ~env:[ ("x", "ab"); ("y", "b"); ("z", "a") ] st
                                (Formula.eq (v "x") (v "y") (v "z")));
  (* concatenation must itself be a factor: a·a = aa is not a factor of aba *)
  check "result not a factor" false
    (Eval.holds ~env:[ ("x", "aa") ] st
       (Formula.Exists ("y", Formula.eq (v "x") (v "y") (v "y"))));
  (* absent constants are ⊥ and falsify atoms *)
  let st2 = Structure.make ~sigma:[ 'a'; 'b' ] "aaa" in
  check "absent const" false (Eval.holds st2 (Formula.eq2 (Term.const 'b') (Term.const 'b')));
  check "present const" true (Eval.holds st2 (Formula.eq2 (Term.const 'a') (Term.const 'a')))

let test_universe_formula () =
  (* Example 2.4: φ_w(x) pins x to the whole word *)
  let f = Builders.universe "x" in
  let st = Structure.make "abba" in
  check "whole word" true (Eval.holds ~env:[ ("x", "abba") ] st f);
  check "strict factor" false (Eval.holds ~env:[ ("x", "abb") ] st f);
  check "eps of nonempty" false (Eval.holds ~env:[ ("x", "") ] st f);
  let st_eps = Structure.make "" in
  check "eps of eps" true (Eval.holds ~env:[ ("x", "") ] st_eps f)

let test_ww () =
  check "abab" true (member Builders.ww "abab");
  check "eps is square" true (member Builders.ww "");
  check "aa" true (member Builders.ww "aa");
  check "aba" false (member Builders.ww "aba");
  check "abab ba" false (member Builders.ww "ababba")

let test_copy_relation () =
  (* Example 2.4: R_copy = {(u, v) | u = vv} as a defined relation *)
  let st = Structure.make "aabaab" in
  let rel = Eval.relation st (Builders.copy "x" "y") ~vars:[ "x"; "y" ] in
  check "aabaab = (aab)^2" true (List.mem [ "aabaab"; "aab" ] rel);
  check "aa = a^2" true (List.mem [ "aa"; "a" ] rel);
  check "eps case" true (List.mem [ ""; "" ] rel);
  check "no junk" true (List.for_all (function [ u; w ] -> u = w ^ w | _ -> false) rel)

let test_k_copies () =
  let st = Structure.make "abababab" in
  let rel3 = Eval.relation st (Builders.k_copies 3 "x" "y") ~vars:[ "x"; "y" ] in
  check "cube of ab... wait (ab)^3" true (List.mem [ "ababab"; "ab" ] rel3);
  check "soundness" true
    (List.for_all (function [ u; w ] -> u = Words.Word.repeat w 3 | _ -> false) rel3);
  (* k = 0 pins x to ε *)
  let rel0 = Eval.relation st (Builders.k_copies 0 "x" "y") ~vars:[ "x"; "y" ] in
  check "zeroth power" true (List.for_all (function [ u; _ ] -> u = "" | _ -> false) rel0)

let test_cube_free () =
  check "intro formula accepts" true (member Builders.cube_free "abab");
  check "rejects aaa" false (member Builders.cube_free "aaa");
  check "rejects embedded cube" false (member Builders.cube_free "babababb");
  check "eps fine" true (member Builders.cube_free "")

let test_vbv () =
  check "aabaa" true (member Builders.vbv "aabaa");
  check "b alone" true (member Builders.vbv "b");
  check "abab no" false (member Builders.vbv "abab");
  check "asymmetric no" false (member Builders.vbv "aabaaa")

let test_fib () =
  List.iter
    (fun n ->
      if not (member ~sigma:[ 'a'; 'b'; 'c' ] Builders.fib (Words.Fibonacci.l_fib_word n)) then
        Alcotest.failf "fib rejects member n=%d" n)
    [ 0; 1; 2; 3; 4 ];
  List.iter
    (fun w ->
      if member ~sigma:[ 'a'; 'b'; 'c' ] Builders.fib w then
        Alcotest.failf "fib accepts non-member %s" w)
    [ ""; "c"; "cc"; "cacabcab"; "cacabcabc"; "cacabcabacc"; "cabcac"; "cacabcabacabaabcc" ]

let test_word_star () =
  (* corrected Claim C.2, including the imprimitive case *)
  let holds w x =
    let st = Structure.make (x ^ "#" ^ w) ~sigma:[ 'a'; 'b'; '#' ] in
    Eval.holds ~env:[ ("x", x) ] st (Builders.word_star w "x")
  in
  check "ab* yes" true (holds "ab" "ababab");
  check "ab* eps" true (holds "ab" "");
  check "ab* no" false (holds "ab" "aba");
  check "aa* rejects aaa (paper slip)" false (holds "aa" "aaa");
  check "aa* accepts aaaa" true (holds "aa" "aaaa");
  check "aa* accepts eps" true (holds "aa" "")

let test_power_set () =
  let s = Semilinear.Set.union (Semilinear.Set.of_list [ 1 ]) (Semilinear.Set.arithmetic ~start:3 ~step:2) in
  let f = Builders.power_set "ab" s "x" in
  let holds x =
    let st = Structure.make (x ^ "#" ^ "ab") ~sigma:[ 'a'; 'b'; '#' ] in
    Eval.holds ~env:[ ("x", x) ] st f
  in
  check "(ab)^1" true (holds "ab");
  check "(ab)^3" true (holds "ababab");
  check "(ab)^5" true (holds (Words.Word.repeat "ab" 5));
  check "(ab)^2 excluded" false (holds "abab");
  check "(ab)^0 excluded" false (holds "")

let test_guided_vs_naive () =
  (* differential testing on words small enough for the naive evaluator *)
  let formulas =
    [ Builders.ww; Builders.cube_free; Builders.vbv; Formula.Not Builders.ww ]
    (* an inner quantifier shadows an outer y that the guidance for x
       must not read *)
    @ List.map Parser.parse_exn
        [
          "exists y. y = eps & exists x. exists y. y = 'a' . x";
          "exists y. y = eps & forall x. !(exists y. y = x . 'a')";
        ]
  in
  let words = Words.Word.enumerate ~alphabet:[ 'a'; 'b' ] ~max_len:4 in
  List.iter
    (fun f ->
      List.iter
        (fun w ->
          let st = Structure.make ~sigma:[ 'a'; 'b' ] w in
          if Eval.holds st f <> Eval.holds_naive st f then
            Alcotest.failf "guided/naive disagree on %S" w)
        words)
    formulas;
  (* nor may an env binding of a name the formula only uses bound *)
  let f = Parser.parse_exn "exists x. exists y. y = 'a' . x" in
  let st = Structure.make ~sigma:[ 'a'; 'b' ] "a" in
  check "unused env binding ignored" true (Eval.holds ~env:[ ("y", "b") ] st f)

let test_language_upto () =
  let l = Eval.language_upto ~sigma:[ 'a'; 'b' ] Builders.ww ~max_len:4 in
  Alcotest.(check (list string)) "squares" [ ""; "aa"; "bb"; "aaaa"; "abab"; "baba"; "bbbb" ] l

let test_unbound_raises () =
  Alcotest.check_raises "unbound var"
    (Invalid_argument "Eval.holds: unbound free variables: x") (fun () ->
      ignore (Eval.holds (Structure.make "a") (Formula.eq2 (v "x") Term.eps)))

let tests =
  ( "fc-eval",
    [
      Alcotest.test_case "atoms" `Quick test_atoms;
      Alcotest.test_case "universe formula" `Quick test_universe_formula;
      Alcotest.test_case "ww" `Quick test_ww;
      Alcotest.test_case "copy relation" `Quick test_copy_relation;
      Alcotest.test_case "k copies" `Quick test_k_copies;
      Alcotest.test_case "cube free" `Quick test_cube_free;
      Alcotest.test_case "vbv" `Quick test_vbv;
      Alcotest.test_case "fibonacci" `Quick test_fib;
      Alcotest.test_case "word star (Claim C.2)" `Quick test_word_star;
      Alcotest.test_case "power set" `Quick test_power_set;
      Alcotest.test_case "guided vs naive" `Quick test_guided_vs_naive;
      Alcotest.test_case "language enumeration" `Quick test_language_upto;
      Alcotest.test_case "unbound variables" `Quick test_unbound_raises;
    ] )
