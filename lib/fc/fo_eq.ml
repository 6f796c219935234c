type t =
  | True
  | False
  | Less of string * string
  | Eq of string * string
  | Letter of char * string
  | Factor_eq of string * string * string * string
  | Not of t
  | And of t * t
  | Or of t * t
  | Exists of string * t
  | Forall of string * t

let conj = function [] -> True | f :: fs -> List.fold_left (fun a b -> And (a, b)) f fs
let disj = function [] -> False | f :: fs -> List.fold_left (fun a b -> Or (a, b)) f fs
let implies a b = Or (Not a, b)
let exists xs f = List.fold_right (fun x acc -> Exists (x, acc)) xs f
let forall xs f = List.fold_right (fun x acc -> Forall (x, acc)) xs f

(* y = x + 1: x < y and nothing strictly between *)
let succ x y =
  let z = "_s_" ^ x ^ y in
  And (Less (x, y), Not (Exists (z, And (Less (x, z), Less (z, y)))))

let is_first x =
  let z = "_f_" ^ x in
  Not (Exists (z, Less (z, x)))

let is_last x =
  let z = "_l_" ^ x in
  Not (Exists (z, Less (x, z)))

let rec quantifier_rank = function
  | True | False | Less _ | Eq _ | Letter _ | Factor_eq _ -> 0
  | Not f -> quantifier_rank f
  | And (a, b) | Or (a, b) -> max (quantifier_rank a) (quantifier_rank b)
  | Exists (_, f) | Forall (_, f) -> 1 + quantifier_rank f

let rec free_vars_raw = function
  | True | False -> []
  | Less (x, y) | Eq (x, y) -> [ x; y ]
  | Letter (_, x) -> [ x ]
  | Factor_eq (a, b, c, d) -> [ a; b; c; d ]
  | Not f -> free_vars_raw f
  | And (a, b) | Or (a, b) -> free_vars_raw a @ free_vars_raw b
  | Exists (x, f) | Forall (x, f) -> List.filter (fun y -> y <> x) (free_vars_raw f)

let free_vars f = List.sort_uniq String.compare (free_vars_raw f)

type env = (string * int) list

(* Compiled formulas: every variable is a slot of an [int array]. The
   [~env] names get the first slots, and every binder a slot of its own,
   so an inner binder that shadows an outer name never overwrites it. *)
type slot = int

type compiled =
  | CTrue
  | CFalse
  | CLess of slot * slot
  | CEq of slot * slot
  | CLetter of char * slot
  | CFactor_eq of slot * slot * slot * slot
  | CUnbound of string  (** an atom that reads a variable nobody binds *)
  | CNot of compiled
  | CAnd of compiled * compiled
  | COr of compiled * compiled
  | CExists of slot * compiled
  | CForall of slot * compiled

let compile env f =
  let next = ref 0 in
  let fresh () =
    let s = !next in
    incr next;
    s
  in
  (* the first binding of a name in [env] wins, as with [List.assoc] *)
  let scope =
    List.fold_left
      (fun sc (x, _) -> if List.mem_assoc x sc then sc else sc @ [ (x, fresh ()) ])
      [] env
  in
  let rec go sc f =
    let atom xs make =
      match List.find_opt (fun x -> not (List.mem_assoc x sc)) xs with
      | Some x -> CUnbound x
      | None -> make (fun x -> List.assoc x sc)
    in
    match f with
    | True -> CTrue
    | False -> CFalse
    | Less (x, y) -> atom [ x; y ] (fun s -> CLess (s x, s y))
    | Eq (x, y) -> atom [ x; y ] (fun s -> CEq (s x, s y))
    | Letter (c, x) -> atom [ x ] (fun s -> CLetter (c, s x))
    | Factor_eq (a, b, c, d) -> atom [ a; b; c; d ] (fun s -> CFactor_eq (s a, s b, s c, s d))
    | Not f -> CNot (go sc f)
    | And (a, b) -> CAnd (go sc a, go sc b)
    | Or (a, b) -> COr (go sc a, go sc b)
    | Exists (x, f) ->
        let s = fresh () in
        CExists (s, go ((x, s) :: sc) f)
    | Forall (x, f) ->
        let s = fresh () in
        CForall (s, go ((x, s) :: sc) f)
  in
  let c = go scope f in
  let slots = Array.make !next 0 in
  List.iter (fun (x, s) -> slots.(s) <- List.assoc x env) scope;
  (c, slots)

let holds ?(env = []) w f =
  let n = String.length w in
  let c, pos = compile env f in
  (* w[i1..j1] = w[i2..j2], inclusive, compared in place; an interval
     with j < i is ε *)
  let factor_eq i1 j1 i2 j2 =
    let l = max 0 (j1 - i1 + 1) in
    l = max 0 (j2 - i2 + 1)
    &&
    let rec same k = k = l || (w.[i1 + k] = w.[i2 + k] && same (k + 1)) in
    same 0
  in
  let rec eval = function
    | CTrue -> true
    | CFalse -> false
    | CLess (x, y) -> pos.(x) < pos.(y)
    | CEq (x, y) -> pos.(x) = pos.(y)
    | CLetter (c, x) -> w.[pos.(x)] = c
    | CFactor_eq (x1, y1, x2, y2) -> factor_eq pos.(x1) pos.(y1) pos.(x2) pos.(y2)
    | CUnbound x -> invalid_arg (Printf.sprintf "Fo_eq.holds: unbound variable %s" x)
    | CNot f -> not (eval f)
    | CAnd (a, b) -> eval a && eval b
    | COr (a, b) -> eval a || eval b
    | CExists (s, f) ->
        let rec scan i = i < n && ((pos.(s) <- i; eval f) || scan (i + 1)) in
        scan 0
    | CForall (s, f) ->
        let rec scan i = i >= n || ((pos.(s) <- i; eval f) && scan (i + 1)) in
        scan 0
  in
  eval c

let language_member f w =
  if free_vars f <> [] then invalid_arg "Fo_eq.language_member: free variables";
  holds w f

(* ------------------------------------------------------------------ *)

let empty_word = Not (Exists ("_x", Eq ("_x", "_x")))

let ww =
  (* ε, or ∃x, y adjacent with w[first..x] = w[y..last]; factor equality
     forces the two halves to have equal length. *)
  Or
    ( empty_word,
      exists [ "x"; "y"; "f"; "l" ]
        (conj
           [
             is_first "f";
             is_last "l";
             succ "x" "y";
             Factor_eq ("f", "x", "y", "l");
           ]) )

let cube_free =
  (* no positions x ≤ y < y' ≤ z' < z'' ≤ t with three adjacent equal
     blocks *)
  Not
    (exists [ "x"; "y"; "y2"; "z"; "z2"; "t" ]
       (conj
          [
            Or (Less ("x", "y"), Eq ("x", "y"));
            succ "y" "y2";
            Or (Less ("y2", "z"), Eq ("y2", "z"));
            succ "z" "z2";
            Or (Less ("z2", "t"), Eq ("z2", "t"));
            Factor_eq ("x", "y", "y2", "z");
            Factor_eq ("y2", "z", "z2", "t");
          ]))

let ends_ab_block =
  (* a⁺b⁺: some boundary position pair (x, y) with everything ≤ x an 'a'
     and everything ≥ y a 'b' *)
  exists [ "x"; "y" ]
    (conj
       [
         succ "x" "y";
         Forall ("_p", implies (Or (Less ("_p", "x"), Eq ("_p", "x"))) (Letter ('a', "_p")));
         Forall ("_q", implies (Or (Less ("y", "_q"), Eq ("_q", "y"))) (Letter ('b', "_q")));
       ])

let rec pp ppf =
  let open Format in
  function
  | True -> pp_print_string ppf "⊤"
  | False -> pp_print_string ppf "⊥"
  | Less (x, y) -> fprintf ppf "(%s < %s)" x y
  | Eq (x, y) -> fprintf ppf "(%s = %s)" x y
  | Letter (c, x) -> fprintf ppf "P_%c(%s)" c x
  | Factor_eq (a, b, c, d) -> fprintf ppf "E(%s,%s,%s,%s)" a b c d
  | Not f -> fprintf ppf "¬%a" pp f
  | And (a, b) -> fprintf ppf "(%a ∧ %a)" pp a pp b
  | Or (a, b) -> fprintf ppf "(%a ∨ %a)" pp a pp b
  | Exists (x, f) -> fprintf ppf "∃%s: %a" x pp f
  | Forall (x, f) -> fprintf ppf "∀%s: %a" x pp f
