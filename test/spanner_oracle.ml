(* Reference evaluator for regex formulas: the memoized enumerator over
   (subformula, i, j), with none of the engine's machinery — no automaton,
   no compile cache, no Σ* loops. It is independent of [Vset_automaton],
   so the tests use it as the oracle for [Regex_formula.eval] and
   [Regex_formula.matches_anywhere]. *)

open Spanner
open Regex_formula

let rec vars_raw = function
  | Empty | Eps | Char _ -> []
  | Alt (a, b) | Cat (a, b) -> vars_raw a @ vars_raw b
  | Star a -> vars_raw a
  | Bind (x, a) -> x :: vars_raw a

let eval formula doc =
  if not (is_functional formula) then invalid_arg "Spanner_oracle.eval: formula is not functional";
  let n = String.length doc in
  (* memoized boolean matcher for variable-free subformulas *)
  let bool_memo : (t * int * int, bool) Hashtbl.t = Hashtbl.create 256 in
  let rec bool_matches r i j =
    match Hashtbl.find_opt bool_memo (r, i, j) with
    | Some b -> b
    | None ->
        let b =
          match r with
          | Empty -> false
          | Eps -> i = j
          | Char c -> j = i + 1 && doc.[i] = c
          | Alt (a, b) -> bool_matches a i j || bool_matches b i j
          | Cat (a, b) ->
              let rec split m = m <= j && ((bool_matches a i m && bool_matches b m j) || split (m + 1)) in
              split i
          | Star a ->
              i = j
              ||
              let rec step m = m <= j && ((m > i && bool_matches a i m && bool_matches r m j) || step (m + 1)) in
              step (i + 1)
          | Bind (_, a) -> bool_matches a i j
        in
        Hashtbl.replace bool_memo (r, i, j) b;
        b
  in
  (* binding enumerator; only called on subformulas that contain variables *)
  let rec bindings r i j : (string * Span.t) list list =
    if vars_raw r = [] then if bool_matches r i j then [ [] ] else []
    else
      match r with
      | Empty | Eps | Char _ | Star _ -> assert false (* variable-free *)
      | Alt (a, b) -> bindings a i j @ bindings b i j
      | Cat (a, b) ->
          List.concat_map
            (fun m ->
              let ba = bindings a i m in
              if ba = [] then []
              else
                let bb = bindings b m j in
                List.concat_map (fun ea -> List.map (fun eb -> ea @ eb) bb) ba)
            (List.init (j - i + 1) (fun d -> i + d))
      | Bind (x, a) ->
          bindings a i j |> List.map (fun e -> (x, Span.make i j) :: e)
  in
  let tuples = bindings formula 0 n in
  if vars formula = [] then if tuples <> [] then Relation.unit else Relation.empty []
  else if tuples = [] then Relation.empty (vars formula)
  else Relation.of_assoc tuples


(* Σ* · γ · Σ* over the document's own alphabet, as regex text *)
let anywhere formula doc =
  let wild = of_regex (Regex_engine.Regex.all_words (Words.Word.alphabet doc)) in
  eval (Cat (wild, Cat (formula, wild))) doc
