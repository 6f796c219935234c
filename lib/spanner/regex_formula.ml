type t =
  | Empty
  | Eps
  | Char of char
  | Alt of t * t
  | Cat of t * t
  | Star of t
  | Bind of string * t

let rec vars_raw = function
  | Empty | Eps | Char _ -> []
  | Alt (a, b) | Cat (a, b) -> vars_raw a @ vars_raw b
  | Star a -> vars_raw a
  | Bind (x, a) -> x :: vars_raw a

let vars t = List.sort_uniq String.compare (vars_raw t)

let rec is_functional = function
  | Empty | Eps | Char _ -> true
  | Alt (a, b) -> vars a = vars b && is_functional a && is_functional b
  | Cat (a, b) ->
      is_functional a && is_functional b
      && List.for_all (fun v -> not (List.mem v (vars b))) (vars a)
  | Star a -> vars a = [] && is_functional a
  | Bind (x, a) -> (not (List.mem x (vars a))) && is_functional a

let rec to_regex = function
  | Empty -> Regex_engine.Regex.empty
  | Eps -> Regex_engine.Regex.eps
  | Char c -> Regex_engine.Regex.char c
  | Alt (a, b) -> Regex_engine.Regex.alt (to_regex a) (to_regex b)
  | Cat (a, b) -> Regex_engine.Regex.cat (to_regex a) (to_regex b)
  | Star a -> Regex_engine.Regex.star (to_regex a)
  | Bind (_, a) -> to_regex a

let rec of_regex (r : Regex_engine.Regex.t) =
  match r with
  | Regex_engine.Regex.Empty -> Empty
  | Regex_engine.Regex.Eps -> Eps
  | Regex_engine.Regex.Char c -> Char c
  | Regex_engine.Regex.Alt (a, b) -> Alt (of_regex a, of_regex b)
  | Regex_engine.Regex.Cat (a, b) -> Cat (of_regex a, of_regex b)
  | Regex_engine.Regex.Star a -> Star (of_regex a)

(* Thompson construction with fragments (entry, exit). Empty is a
   fragment with no path, Eps has entry = exit. ε-moves are [Open ""]: the
   empty variable name is reserved (no parser accepts it). *)
let compile formula =
  let transitions = ref [] and count = ref 0 in
  let fresh () = incr count; !count - 1 in
  let add q l q' = transitions := (q, l, q') :: !transitions in
  let eps = Vset_automaton.Open "" in
  let rec build = function
    | Empty ->
        let i = fresh () and o = fresh () in
        (i, o)
    | Eps ->
        let i = fresh () in
        (i, i)
    | Char c ->
        let i = fresh () and o = fresh () in
        add i (Vset_automaton.Read c) o;
        (i, o)
    | Alt (a, b) ->
        let i = fresh () and o = fresh () in
        let ia, oa = build a and ib, ob = build b in
        add i eps ia;
        add i eps ib;
        add oa eps o;
        add ob eps o;
        (i, o)
    | Cat (a, b) ->
        let ia, oa = build a and ib, ob = build b in
        add oa eps ib;
        (ia, ob)
    | Star a ->
        let i = fresh () in
        let ia, oa = build a in
        add i eps ia;
        add oa eps i;
        (i, i)
    | Bind (x, a) ->
        let i = fresh () and o = fresh () in
        let ia, oa = build a in
        add i (Vset_automaton.Open x) ia;
        add oa (Vset_automaton.Close x) o;
        (i, o)
  in
  let entry, exit_ = build formula in
  Vset_automaton.make ~states:!count ~start:entry ~accepting:[ exit_ ] ~transitions:!transitions

let m_compiles = Obs.Metrics.counter "spanner.compiles"

(* Compiled automata keyed structurally by (anywhere, formula); reset
   wholesale when full, like [Fc.Eval]'s compiled cache. *)
let compiled_cache : (bool * t, Vset_automaton.t) Hashtbl.t = Hashtbl.create 64

let compile_cached ~anywhere formula =
  match Hashtbl.find_opt compiled_cache (anywhere, formula) with
  | Some a -> a
  | None ->
      if not (is_functional formula) then invalid_arg "Regex_formula.eval: formula is not functional";
      Obs.Metrics.incr m_compiles;
      let a = compile formula in
      let a = if anywhere then Vset_automaton.anywhere a else a in
      if Hashtbl.length compiled_cache > 512 then Hashtbl.reset compiled_cache;
      Hashtbl.add compiled_cache (anywhere, formula) a;
      a

let eval formula doc = Vset_automaton.eval (compile_cached ~anywhere:false formula) doc
let matches_anywhere formula doc = Vset_automaton.eval (compile_cached ~anywhere:true formula) doc

(* ------------------------------------------------------------------ *)
(* Syntax: regex syntax plus ident{...} bindings.                      *)

exception Parse_error of string

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let metachars = [ '('; ')'; '|'; '*'; '+'; '?'; '\\'; '%'; '{'; '}' ]

let parse_exn input =
  let n = String.length input in
  let pos = ref 0 in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let peek2 () = if !pos + 1 < n then Some input.[!pos + 1] else None in
  let advance () = incr pos in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let opt r = Alt (r, Eps) in
  let plus r = Cat (r, Star r) in
  (* A binding looks like ident{...}: scan ahead from an identifier start
     for a '{' immediately after the identifier. *)
  let binding_ahead () =
    let rec scan j =
      if j < n && is_ident_char input.[j] then scan (j + 1)
      else j > !pos && j < n && input.[j] = '{'
    in
    match peek () with
    | Some c when is_ident_char c -> scan !pos
    | _ -> false
  in
  let rec parse_alt () =
    let first = parse_cat () in
    let rec more acc =
      match peek () with
      | Some '|' ->
          advance ();
          more (Alt (acc, parse_cat ()))
      | _ -> acc
    in
    more first
  and parse_cat () =
    let rec go acc =
      match peek () with
      | None | Some ')' | Some '|' | Some '}' -> acc
      | _ ->
          let next = parse_postfix () in
          go (if acc = Eps then next else Cat (acc, next))
    in
    go Eps
  and parse_postfix () =
    let base = parse_atom () in
    let rec ops acc =
      match peek () with
      | Some '*' ->
          advance ();
          ops (Star acc)
      | Some '+' ->
          advance ();
          ops (plus acc)
      | Some '?' ->
          advance ();
          ops (opt acc)
      | _ -> acc
    in
    ops base
  and parse_atom () =
    if binding_ahead () then begin
      let start = !pos in
      while !pos < n && is_ident_char input.[!pos] do
        advance ()
      done;
      let name = String.sub input start (!pos - start) in
      advance () (* '{' *);
      let body = parse_alt () in
      if peek () = Some '}' then (
        advance ();
        Bind (name, body))
      else fail "expected '}'"
    end
    else
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '(' -> (
          advance ();
          match peek () with
          | Some ')' ->
              advance ();
              Eps
          | _ ->
              let r = parse_alt () in
              if peek () = Some ')' then (
                advance ();
                r)
              else fail "expected ')'")
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "dangling escape"
          | Some c ->
              advance ();
              Char c)
      | Some '%' -> (
          advance ();
          match (peek (), peek2 ()) with
          | Some 'e', _ ->
              advance ();
              Eps
          | Some '0', _ ->
              advance ();
              Empty
          | _ -> fail "expected %e or %0")
      | Some c when not (List.mem c metachars) ->
          advance ();
          Char c
      | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let r = parse_alt () in
  if !pos <> n then fail "trailing input";
  r

let parse input = try Ok (parse_exn input) with Parse_error msg -> Error msg

let rec pp ppf =
  let open Format in
  function
  | Empty -> pp_print_string ppf "%0"
  | Eps -> pp_print_string ppf "%e"
  | Char c -> if List.mem c metachars then fprintf ppf "\\%c" c else pp_print_char ppf c
  | Alt (a, b) -> fprintf ppf "%a|%a" pp a pp b
  | Cat (a, b) ->
      let side ppf x = match x with Alt _ -> fprintf ppf "(%a)" pp x | _ -> pp ppf x in
      fprintf ppf "%a%a" side a side b
  | Star a -> (
      match a with
      | Char _ | Bind _ -> fprintf ppf "%a*" pp a
      | _ -> fprintf ppf "(%a)*" pp a)
  | Bind (x, a) -> fprintf ppf "%s{%a}" x pp a
