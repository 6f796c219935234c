(* Reference FC evaluator on strings, guided and naive: values are
   strings, the environment is an association list, and every candidate
   generator materialises substrings and sorts them. It shares no
   evaluation code with [Fc.Eval] (only the formula type, [Structure]
   and the binder renaming idea), so the tests use it to check
   [Eval.holds], [Eval.holds_naive] and [Eval.relation]. *)

open Fc

(* Factors of the structure's word having the given prefix (suffix),
   length-lex sorted. *)
let with_prefix st p =
  let w = Structure.word st in
  let n = String.length w in
  Words.Word.occurrences ~pattern:p w
  |> List.concat_map (fun o ->
         List.init (n - o - String.length p + 1) (fun l -> String.sub w o (String.length p + l)))
  |> List.sort_uniq Words.Word.compare_length_lex

let with_suffix st s =
  let w = Structure.word st in
  Words.Word.occurrences ~pattern:s w
  |> List.concat_map (fun o -> List.init (o + 1) (fun i -> String.sub w i (o + String.length s - i)))
  |> List.sort_uniq Words.Word.compare_length_lex

type env = (string * string) list

let term_value st env = function
  | Term.Eps -> Some ""
  | Term.Const c -> Structure.const_value st c
  | Term.Var x -> List.assoc_opt x env

let atom_eq st env t1 t2 t3 =
  match (term_value st env t1, term_value st env t2, term_value st env t3) with
  | Some v1, Some v2, Some v3 -> v1 = v2 ^ v3 && Structure.mem st v1
  | _ -> false

let atom_mem st env t r =
  match term_value st env t with
  | Some v -> Regex_engine.Regex.matches r v
  | None -> false

(* ------------------------------------------------------------------ *)
(* Guidance: required atoms and candidate generators.                 *)

let term_mentions x = function Term.Var y -> x = y | Term.Const _ | Term.Eps -> false

(* Candidate values for [x] admitted by a required atom, given [env].
   [None] = the atom provides no guidance for x. [Some l] = every witness
   value of x lies in l. *)
let atom_candidates st env x (atom : Formula.t) : string list option =
  let value = term_value st env in
  let is_x = term_mentions x in
  let bound t = (not (is_x t)) && (match t with Term.Var y -> List.mem_assoc y env | _ -> true) in
  match atom with
  | Formula.Mem (t, r) when is_x t -> (
      match Regex_engine.Regex.language_words r with
      | Some ws -> Some (List.filter (Structure.mem st) ws)
      | None -> None)
  | Formula.Eq (t1, t2, t3) -> (
      let v t = match value t with Some v -> v | None -> "" in
      let dead t = bound t && value t = None in
      if dead t1 || dead t2 || dead t3 then Some [] (* ⊥ in a required atom *)
      else
        match (bound t1, bound t2, bound t3) with
        | true, _, _ when is_x t2 || is_x t3 ->
            let v1 = v t1 in
            let fits (u, w) =
              (match (is_x t2, bound t2) with
              | true, _ -> true
              | false, true -> v t2 = u
              | false, false -> true)
              && (match (is_x t3, bound t3) with
                 | true, _ -> true
                 | false, true -> v t3 = w
                 | false, false -> true)
            in
            let xs_of (u, w) =
              match (is_x t2, is_x t3) with
              | true, true -> if u = w then [ u ] else []
              | true, false -> [ u ]
              | false, true -> [ w ]
              | false, false -> []
            in
            Some
              (Words.Word.splits v1 |> List.filter fits |> List.concat_map xs_of
             |> List.sort_uniq String.compare)
        | _, true, true when is_x t1 ->
            let candidate = v t2 ^ v t3 in
            Some (if Structure.mem st candidate then [ candidate ] else [])
        | _, true, false when is_x t1 ->
            (* x = v2 · t3 with t3 unknown: x ranges over factors with that
               prefix — indexed in the factor set *)
            Some (with_prefix st (v t2))
        | _, false, true when is_x t1 ->
            Some (with_suffix st (v t3))
        | _ -> None)
  | _ -> None

(* A complete candidate generator for [x] from an NNF formula: every value
   of x in a satisfying assignment (extending env) is in the returned list.
   - conjunction: either side's generator is complete — keep the smaller;
   - disjunction: a witness may come from either branch — union, defined
     only when both branches have generators;
   - quantifiers: atoms under them that do not involve the bound variable
     are still entailed (the universe is never empty); shadowing stops the
     search. *)
let rec cover st env x (f : Formula.t) : string list option =
  match f with
  | Eq _ | Mem _ -> atom_candidates st env x f
  | True | False | Not _ -> None
  | And (a, b) -> (
      match (cover st env x a, cover st env x b) with
      | Some ga, Some gb -> Some (if List.length ga <= List.length gb then ga else gb)
      | (Some _ as g), None | None, (Some _ as g) -> g
      | None, None -> None)
  | Or (a, b) -> (
      match (cover st env x a, cover st env x b) with
      | Some ga, Some gb -> Some (List.sort_uniq String.compare (ga @ gb))
      | _ -> None)
  | Exists (y, g) | Forall (y, g) -> if y = x then None else cover st env x g


(* ------------------------------------------------------------------ *)
(* Compilation: guidance atoms are env-independent, so they are computed
   once per quantifier node instead of on every visit.                 *)

type cformula =
  | CTrue
  | CFalse
  | CEq of Term.t * Term.t * Term.t
  | CMem of Term.t * Regex_engine.Regex.t
  | CNot of cformula
  | CAnd of cformula * cformula
  | COr of cformula * cformula
  | CExists of string * Formula.t * cformula
      (** guidance: the body's NNF, traversed by {!cover} *)
  | CForall of string * Formula.t * cformula
      (** guidance: the negated body's NNF *)

let rec compile (f : Formula.t) : cformula =
  match f with
  | True -> CTrue
  | False -> CFalse
  | Eq (t1, t2, t3) -> CEq (t1, t2, t3)
  | Mem (t, r) -> CMem (t, r)
  | Not g -> CNot (compile g)
  | And (a, b) -> CAnd (compile a, compile b)
  | Or (a, b) -> COr (compile a, compile b)
  | Exists (x, g) -> CExists (x, Formula.nnf g, compile g)
  | Forall (x, g) -> CForall (x, Formula.nnf (Formula.Not g), compile g)

(* Alpha-rename every quantifier that rebinds a name already free or bound
   elsewhere in [f], so all binders are distinct from each other and from
   the free variables. [cover] reads [env] for every variable an atom
   mentions, which is right only when no quantifier between the binding
   and the atom rebinds that variable. *)
let distinct_binders f =
  let names = Formula.all_vars f in
  let used = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace used x ()) (Formula.free_vars f);
  let rec fresh y i =
    let y' = Printf.sprintf "%s'%d" y i in
    if Hashtbl.mem used y' || List.mem y' names then fresh y (i + 1) else y'
  in
  let rec go (f : Formula.t) : Formula.t =
    match f with
    | True | False | Eq _ | Mem _ -> f
    | Not g -> Not (go g)
    | And (a, b) ->
        let a = go a in
        And (a, go b)
    | Or (a, b) ->
        let a = go a in
        Or (a, go b)
    | Exists (y, g) ->
        let y, g = bind y g in
        Exists (y, go g)
    | Forall (y, g) ->
        let y, g = bind y g in
        Forall (y, go g)
  and bind y g =
    let y' = if Hashtbl.mem used y then fresh y 1 else y in
    Hashtbl.replace used y' ();
    (y', if y' = y then g else Formula.rename_free [ (y, y') ] g)
  in
  go f

let compiled_cache : (Formula.t, cformula) Hashtbl.t = Hashtbl.create 64

let compile_cached f =
  match Hashtbl.find_opt compiled_cache f with
  | Some c -> c
  | None ->
      let c = compile (distinct_binders f) in
      if Hashtbl.length compiled_cache > 512 then Hashtbl.reset compiled_cache;
      Hashtbl.add compiled_cache f c;
      c

type ctx = { st : Structure.t; guided : bool }

let static_candidates ctx env x nnf_body =
  if not ctx.guided then None else cover ctx.st env x nnf_body

let rec ceval ctx env (f : cformula) =
  match f with
  | CTrue -> true
  | CFalse -> false
  | CEq (t1, t2, t3) -> atom_eq ctx.st env t1 t2 t3
  | CMem (t, r) -> atom_mem ctx.st env t r
  | CNot g -> not (ceval ctx env g)
  | CAnd (a, b) -> ceval ctx env a && ceval ctx env b
  | COr (a, b) -> ceval ctx env a || ceval ctx env b
  | CExists (x, nnf_body, g) ->
      let domain =
        match static_candidates ctx env x nnf_body with
        | Some vs -> vs
        | None -> Structure.universe ctx.st
      in
      List.exists (fun v -> ceval ctx ((x, v) :: env) g) domain
  | CForall (x, nnf_body, g) ->
      let domain =
        match static_candidates ctx env x nnf_body with
        | Some vs -> vs
        | None -> Structure.universe ctx.st
      in
      (* the guidance atoms cover every potential counterexample, so values
         outside the domain satisfy the body vacuously *)
      List.for_all (fun v -> ceval ctx ((x, v) :: env) g) domain

(* The bindings of [f]'s free variables in [env]. The others are dropped:
   a quantifier in [f] may reuse their names. *)
let closing_env ~env f =
  let fvs = Formula.free_vars f in
  let unbound = List.filter (fun x -> not (List.mem_assoc x env)) fvs in
  if unbound <> [] then
    invalid_arg
      (Printf.sprintf "Eval.holds: unbound free variables: %s" (String.concat ", " unbound));
  List.filter (fun (x, _) -> List.mem x fvs) env

let holds ?(env = []) st f =
  ceval { st; guided = true } (closing_env ~env f) (compile_cached f)

let holds_naive ?(env = []) st f =
  ceval { st; guided = false } (closing_env ~env f) (compile_cached f)

let assignments st f =
  let ctx = { st; guided = true } in
  let compiled = compile_cached f in
  let fvs = Formula.free_vars f in
  let guidance = Formula.nnf (distinct_binders f) in
  let rec go env = function
    | [] -> if ceval ctx env compiled then [ List.sort compare env ] else []
    | x :: rest ->
        let domain =
          match static_candidates ctx env x guidance with
          | Some vs -> vs
          | None -> Structure.universe st
        in
        List.concat_map (fun v -> go ((x, v) :: env) rest) domain
  in
  List.sort_uniq compare (go [] fvs)

let relation st f ~vars =
  let fvs = Formula.free_vars f in
  List.iter
    (fun x ->
      if not (List.mem x vars) then
        invalid_arg (Printf.sprintf "Eval.relation: free variable %s not listed" x))
    fvs;
  assignments st f
  |> List.map (fun env ->
         List.map (fun x -> match List.assoc_opt x env with Some v -> v | None -> "") vars)
  |> List.sort_uniq compare
