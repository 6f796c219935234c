(* The id/slot evaluators against their string oracles:
   - [Fc.Eval.holds] and [holds_naive] against [Fc_oracle] (a string
     evaluator), on the builders exhaustively and on random
     sentences; [Eval.relation] on random formulas with free variables,
     FC[REG] [Mem] atoms included;
   - [Fc.Fo_eq.holds] against [Fo_eq_oracle] on random formulas whose
     binders shadow each other and the [~env] names. *)

open Fc

let sigma = [ 'a'; 'b'; 'c' ]

let test_builders_exhaustive () =
  let words = Words.Word.enumerate ~alphabet:sigma ~max_len:6 in
  let cases = ref 0 in
  List.iter
    (fun (name, f) ->
      List.iter
        (fun w ->
          let st = Structure.make ~sigma w in
          let expected = Fc_oracle.holds st f in
          incr cases;
          if Eval.holds st f <> expected then Alcotest.failf "%s: holds disagrees on %S" name w;
          if Eval.holds_naive st f <> expected then
            Alcotest.failf "%s: holds_naive disagrees on %S" name w)
        words)
    [ ("ww", Builders.ww); ("cube_free", Builders.cube_free); ("vbv", Builders.vbv);
      ("fib", Builders.fib) ];
  Alcotest.(check int) "cases" 4372 !cases

(* ---- random FC[REG] formulas ----------------------------------- *)

let vars = [ "x"; "y"; "z" ]

let gen_term =
  QCheck.Gen.(
    frequency
      [ (4, map (fun x -> Term.Var x) (oneofl vars));
        (2, map (fun c -> Term.Const c) (oneofl sigma));
        (1, return Term.Eps) ])

(* finite languages (guided by [Mem] candidates) and infinite ones *)
let regexes = List.map Regex_engine.Regex.parse_exn [ "a|ab"; "(a|b)(a|b)"; "c"; "a*b*"; "(ab)*" ]

let rec gen_formula ?(mem = true) depth =
  let open QCheck.Gen in
  let atom =
    frequency
      [ (5, map3 (fun t1 t2 t3 -> Formula.Eq (t1, t2, t3)) gen_term gen_term gen_term);
        ((if mem then 1 else 0), map2 (fun t r -> Formula.Mem (t, r)) gen_term (oneofl regexes)) ]
  in
  if depth = 0 then atom
  else
    let sub = gen_formula ~mem (depth - 1) in
    frequency
      [ (3, atom);
        (2, map (fun f -> Formula.Not f) sub);
        (2, map2 (fun a b -> Formula.And (a, b)) sub sub);
        (2, map2 (fun a b -> Formula.Or (a, b)) sub sub);
        (2, map2 (fun x f -> Formula.Exists (x, f)) (oneofl vars) sub);
        (2, map2 (fun x f -> Formula.Forall (x, f)) (oneofl vars) sub) ]

let gen_word = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b' ]) (0 -- 5))
let print_case (f, w) = Printf.sprintf "%s on %S" (Formula.to_string f) w
let arb_case gen = QCheck.make ~print:print_case QCheck.Gen.(pair gen gen_word)

let prop_sentences =
  QCheck.Test.make ~name:"holds and holds_naive = oracle on random sentences" ~count:300
    (arb_case QCheck.Gen.(map (fun f -> Formula.exists (Formula.free_vars f) f) (gen_formula 3)))
    (fun (f, w) ->
      let st = Structure.make ~sigma w in
      let expected = Fc_oracle.holds st f in
      (Eval.holds st f = expected && Eval.holds_naive st f = expected)
      || QCheck.Test.fail_report "disagrees with the oracle")

let prop_relation =
  QCheck.Test.make ~name:"relation = oracle on random formulas with free variables" ~count:300
    (arb_case (gen_formula 3))
    (fun (f, w) ->
      let st = Structure.make ~sigma w in
      let vars = Formula.free_vars f in
      Eval.relation st f ~vars = Fc_oracle.relation st f ~vars
      || QCheck.Test.fail_report "relation differs from the oracle")

(* Bindings need not be factors: a non-factor is ⊥, which falsifies every
   [Eq] atom exactly as the string evaluator's failed concatenation check
   does. (On a [Mem] atom the two readings differ; see [test_bottom].) *)
let prop_env =
  let gen =
    QCheck.Gen.(
      pair (gen_formula ~mem:false 3) gen_word >>= fun (f, w) ->
      let value = string_size ~gen:(oneofl [ 'a'; 'b' ]) (0 -- 3) in
      map (fun vs -> (f, w, List.combine vars vs)) (flatten_l [ value; value; value ]))
  in
  QCheck.Test.make ~name:"holds ~env = oracle, non-factor bindings included" ~count:300
    (QCheck.make
       ~print:(fun (f, w, env) ->
         print_case (f, w) ^ " with "
         ^ String.concat ", " (List.map (fun (x, v) -> x ^ "=" ^ v) env))
       gen)
    (fun (f, w, env) ->
      let st = Structure.make ~sigma w in
      let expected = Fc_oracle.holds ~env st f in
      (Eval.holds ~env st f = expected && Eval.holds_naive ~env st f = expected)
      || QCheck.Test.fail_report "disagrees with the oracle")

let test_bottom () =
  let st = Structure.make ~sigma "aba" in
  let v = Term.var in
  (* "aa" is no factor of aba: the binding denotes ⊥ *)
  let env = [ ("x", "aa") ] in
  let mem = Formula.mem (v "x") (Regex_engine.Regex.parse_exn "a*") in
  Alcotest.(check bool) "Mem on ⊥" false (Eval.holds ~env st mem);
  Alcotest.(check bool) "¬Mem on ⊥" true (Eval.holds ~env st (Formula.Not mem));
  Alcotest.(check bool) "Eq on ⊥" false (Eval.holds ~env st (Formula.eq2 (v "x") (v "x")));
  Alcotest.(check bool) "absent letter is ⊥" false
    (Eval.holds st (Formula.Exists ("y", Formula.eq2 (v "y") (Term.const 'c'))))

(* ---- random FO[EQ] formulas ------------------------------------ *)

let gen_fo depth =
  let open QCheck.Gen in
  let var = oneofl vars in
  let atom =
    frequency
      [ (2, map2 (fun x y -> Fo_eq.Less (x, y)) var var);
        (1, map2 (fun x y -> Fo_eq.Eq (x, y)) var var);
        (2, map2 (fun c x -> Fo_eq.Letter (c, x)) (oneofl [ 'a'; 'b' ]) var);
        (3, map (fun (a, b, c, d) -> Fo_eq.Factor_eq (a, b, c, d)) (quad var var var var)) ]
  in
  let rec go depth =
    if depth = 0 then atom
    else
      let sub = go (depth - 1) in
      frequency
        [ (2, atom);
          (2, map (fun f -> Fo_eq.Not f) sub);
          (2, map2 (fun a b -> Fo_eq.And (a, b)) sub sub);
          (2, map2 (fun a b -> Fo_eq.Or (a, b)) sub sub);
          (3, map2 (fun x f -> Fo_eq.Exists (x, f)) var sub);
          (3, map2 (fun x f -> Fo_eq.Forall (x, f)) var sub) ]
  in
  go depth

(* every name bound by [~env] (so free variables never raise), in a
   shuffled order with a duplicate: the first binding of a name wins *)
let prop_fo_eq =
  let gen =
    QCheck.Gen.(
      pair (gen_fo 4) (string_size ~gen:(oneofl [ 'a'; 'b' ]) (1 -- 5)) >>= fun (f, w) ->
      let p = int_bound (String.length w - 1) in
      map2
        (fun ps order ->
          let env = List.combine vars ps in
          (f, w, List.map (List.nth env) order @ env))
        (flatten_l [ p; p; p ])
        (list_size (0 -- 4) (int_bound 2)))
  in
  QCheck.Test.make ~name:"Fo_eq.holds = oracle with shadowed binders and ~env" ~count:500
    (QCheck.make
       ~print:(fun (f, w, env) ->
         Format.asprintf "%a on %S with %s" Fo_eq.pp f w
           (String.concat ", " (List.map (fun (x, i) -> Printf.sprintf "%s=%d" x i) env)))
       gen)
    (fun (f, w, env) ->
      Fo_eq.holds ~env w f = Fo_eq_oracle.holds ~env w f
      || QCheck.Test.fail_report "disagrees with the oracle")

let tests =
  ( "fc-oracle",
    [
      Alcotest.test_case "builders = oracle on {a,b,c}^<=6" `Quick test_builders_exhaustive;
      Alcotest.test_case "non-factor bindings are bottom" `Quick test_bottom;
      QCheck_alcotest.to_alcotest prop_sentences;
      QCheck_alcotest.to_alcotest prop_relation;
      QCheck_alcotest.to_alcotest prop_env;
      QCheck_alcotest.to_alcotest prop_fo_eq;
    ] )
