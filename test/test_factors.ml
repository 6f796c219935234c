open Words

let check_int = Alcotest.(check int)
let check = Alcotest.(check bool)

let test_unary () =
  let f = Factors.of_word "aaaa" in
  check_int "size a^4" 5 (Factors.size f);
  check "mem" true (Factors.mem f "aa");
  check "not mem" false (Factors.mem f "b");
  Alcotest.(check string) "word" "aaaa" (Factors.word f)

let test_ids () =
  let f = Factors.of_word "ab" in
  check_int "eps id" 0 (Factors.id_of_exn f "");
  Alcotest.(check (list string)) "sorted" [ ""; "a"; "b"; "ab" ] (Factors.to_list f);
  check "roundtrip" true
    (List.for_all
       (fun w -> Factors.factor_of f (Factors.id_of_exn f w) = w)
       (Factors.to_list f))

let test_inter () =
  let f1 = Factors.of_word "aab" and f2 = Factors.of_word "baa" in
  Alcotest.(check (list string)) "common" [ ""; "a"; "b"; "aa" ] (Factors.inter f1 f2);
  check_int "max common len" 2 (Factors.max_common_factor_length f1 f2);
  check "equal sets reflexive" true (Factors.equal_sets f1 f1);
  check "not equal" false (Factors.equal_sets f1 f2)

let test_paper_intersections () =
  (* Facs(a^m) ∩ Facs((ba)^n) = {ε, a} — the r = 1 case of Prop. 4.5 *)
  let fa = Factors.of_word "aaaa" and fba = Factors.of_word "bababa" in
  Alcotest.(check (list string)) "a vs ba" [ ""; "a" ] (Factors.inter fa fba);
  (* Facs(a^n) ∩ Facs(b^m) = {ε} — Example 4.4 *)
  let fb = Factors.of_word "bbb" in
  Alcotest.(check (list string)) "a vs b" [ "" ] (Factors.inter fa fb);
  (* Facs(a^i b^j) ∩ Facs((ab)^l) = {ε, a, b, ab} — the L6 case *)
  let fab = Factors.of_word "aaabbb" and fabl = Factors.of_word "abababab" in
  Alcotest.(check (list string)) "ab vs (ab)*" [ ""; "a"; "b"; "ab" ] (Factors.inter fab fabl)

let arb_word =
  QCheck.make
    ~print:(fun s -> s)
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b' ]) (0 -- 7))

let prop_size_matches_naive =
  QCheck.Test.make ~name:"factor set = naive factor enumeration" ~count:100 arb_word (fun w ->
      let naive =
        List.sort_uniq compare
          (List.concat_map
             (fun i ->
               List.init
                 (String.length w - i + 1)
                 (fun l -> String.sub w i l))
             (List.init (String.length w + 1) Fun.id))
      in
      List.sort compare (Factors.to_list (Factors.of_word w)) = naive)

let tests =
  ( "factors",
    [
      Alcotest.test_case "unary" `Quick test_unary;
      Alcotest.test_case "ids" `Quick test_ids;
      Alcotest.test_case "intersection" `Quick test_inter;
      Alcotest.test_case "paper intersections" `Quick test_paper_intersections;
      QCheck_alcotest.to_alcotest prop_size_matches_naive;
    ] )
