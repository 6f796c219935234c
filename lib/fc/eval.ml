(* The model checker computes on integer factor ids ({!Words.Factor_bitset})
   and slot-indexed environments; strings appear only at the API boundary
   (the [~env] bindings in, the tuples of [assignments] out). *)

type env = (string * string) list

let term_value st env = function
  | Term.Eps -> Some ""
  | Term.Const c -> Structure.const_value st c
  | Term.Var x -> List.assoc_opt x env

module Fb = Words.Factor_bitset

let m_quantifier_nodes = Obs.Metrics.counter "fc.quantifier_nodes"
let m_candidates = Obs.Metrics.counter "fc.candidates"
let m_unguided = Obs.Metrics.counter "fc.unguided"

(* ------------------------------------------------------------------ *)
(* The per-call index over the structure's word.                       *)

type index = {
  fb : Fb.t;
  pos : int array array; (* pos.(i).(l) = id of w[i, i+l) *)
  letter : int array; (* char code -> id of that one-letter factor; -1 = ⊥ *)
  stamp : int array; (* id -> the generation that last emitted it *)
  mutable gen : int;
  guided : bool;
}

let index ~guided st =
  let fb = Fb.of_word (Structure.word st) in
  let letter = Array.make 256 (-1) in
  let pos = Fb.position_ids fb in
  String.iteri (fun i c -> letter.(Char.code c) <- pos.(i).(1)) (Structure.word st);
  { fb; pos; letter; stamp = Array.make (Fb.size fb) 0; gen = 0; guided }

(* Values are ids; -1 is ⊥ (an absent letter constant, or an [~env]
   binding outside Facs(w)). *)
type cterm = Slot of int | Letter of char | Eps

let value ix env = function
  | Slot s -> env.(s)
  | Letter c -> ix.letter.(Char.code c)
  | Eps -> 0

(* v1 = v2 · v3: lengths add up and v1's representative occurrence
   splits into v2 and v3 *)
let concat_holds ix v1 v2 v3 =
  v1 >= 0 && v2 >= 0 && v3 >= 0
  &&
  let l1 = Fb.length ix.fb v1 and l2 = Fb.length ix.fb v2 in
  l1 = l2 + Fb.length ix.fb v3
  &&
  let s = Fb.start ix.fb v1 in
  ix.pos.(s).(l2) = v2 && ix.pos.(s + l2).(l1 - l2) = v3

(* ------------------------------------------------------------------ *)
(* Guidance: required atoms and candidate generators.                 *)

(* A term of a guide atom, classified when the guide is compiled: the
   variable being generated, a term whose value is known when the
   quantifier is visited, or a variable bound only further in. *)
type gterm = X | Known of cterm | Later

type gen =
  | Split of cterm * gterm * gterm  (** known t1 = t2 · t3, x among t2, t3 *)
  | Concat of cterm * cterm  (** x = known · known *)
  | Prefix of cterm  (** x = known · later (or · x) *)
  | Suffix of cterm  (** x = later · known *)
  | No_gen

(* A compiled guide: the required atoms of a quantifier's body (its NNF;
   the negated body's for ∀), with the connectives and binders between
   them. Binders are transparent (they never rebind x after
   [distinct_binders]) and are dropped; nested quantifiers keep their
   own guides in the formula, never in here. *)
type guide =
  | G_none
  | G_eq of cterm list * gen
      (** the atom's known terms that may be ⊥ (then no witness exists),
          and its generator *)
  | G_words of string list  (** x in a finite regular language *)
  | G_and of guide * guide
  | G_or of guide * guide

let emit ix k acc id =
  if ix.stamp.(id) <> ix.gen then begin
    ix.stamp.(id) <- ix.gen;
    incr k;
    acc := id :: !acc
  end

let generate ix env gen =
  ix.gen <- ix.gen + 1;
  let k = ref 0 and acc = ref [] in
  let pos = ix.pos in
  let n = Array.length pos - 1 in
  (match gen with
  | No_gen -> ()
  | Split (t1, g2, g3) ->
      let v1 = value ix env t1 in
      let l1 = Fb.length ix.fb v1 and s = Fb.start ix.fb v1 in
      let fits g v = match g with Known t -> value ix env t = v | X | Later -> true in
      for j = 0 to l1 do
        let u = pos.(s).(j) and w = pos.(s + j).(l1 - j) in
        if fits g2 u && fits g3 w then
          match (g2, g3) with
          | X, X -> if u = w then emit ix k acc u
          | X, _ -> emit ix k acc u
          | _, X -> emit ix k acc w
          | _ -> ()
      done
  | Concat (t2, t3) ->
      let c = Fb.concat ix.fb (value ix env t2) (value ix env t3) in
      if c >= 0 then emit ix k acc c
  | Prefix t2 ->
      let p = value ix env t2 in
      let lp = Fb.length ix.fb p in
      for i = 0 to n - lp do
        let row = pos.(i) in
        if row.(lp) = p then for l = lp to n - i do emit ix k acc row.(l) done
      done
  | Suffix t3 ->
      let sf = value ix env t3 in
      let ls = Fb.length ix.fb sf in
      for o = 0 to n - ls do
        if pos.(o).(ls) = sf then for i = 0 to o do emit ix k acc pos.(i).(o + ls - i) done
      done);
  match gen with No_gen -> None | _ -> Some (!k, !acc)

(* Candidate ids for x admitted by a guide under [env]. [None] = no
   guidance; [Some (k, ids)]: every witness value of x is among the [k]
   duplicate-free [ids]. Each generator call takes a fresh generation, so
   [stamp.(id) = gen] exactly when [id] was already emitted. *)
let rec cover ix env g : (int * int list) option =
  match g with
  | G_none -> None
  | G_eq (maybe_bottom, gen) ->
      if List.exists (fun t -> value ix env t < 0) maybe_bottom then Some (0, [])
      else generate ix env gen
  | G_words ws ->
      ix.gen <- ix.gen + 1;
      let k = ref 0 and acc = ref [] in
      List.iter
        (fun w -> match Fb.id_of ix.fb w with Some id -> emit ix k acc id | None -> ())
        ws;
      Some (!k, !acc)
  | G_and (a, b) -> (
      (* either side is complete: keep the smaller; no side beats one
         candidate enough to be worth generating *)
      match cover ix env a with
      | Some (k, _) as ga when k <= 1 -> ga
      | ga -> (
          match (ga, cover ix env b) with
          | Some (ka, _), (Some (kb, _) as gb) -> if ka <= kb then ga else gb
          | (Some _ as g), None | None, (Some _ as g) -> g
          | None, None -> None))
  | G_or (a, b) -> (
      (* a witness may come from either branch: the union *)
      match cover ix env a with
      | None -> None
      | Some (ka, ia) -> (
          match cover ix env b with
          | None -> None
          | Some (_, ib) ->
              ix.gen <- ix.gen + 1;
              List.iter (fun id -> ix.stamp.(id) <- ix.gen) ia;
              let k = ref ka and acc = ref ia in
              List.iter (emit ix k acc) ib;
              Some (!k, !acc)))

(* The domain of a quantifier (or of a free variable in [assignments]):
   [Some ids] from the guide, [None] for the whole universe. *)
let domain ix env g =
  Obs.Metrics.incr m_quantifier_nodes;
  match if ix.guided then cover ix env g else None with
  | Some (k, ids) ->
      Obs.Metrics.add m_candidates k;
      Some ids
  | None ->
      Obs.Metrics.incr m_unguided;
      None

(* ------------------------------------------------------------------ *)
(* Compilation: slots, and guides computed once per quantifier node.  *)

type cformula =
  | CTrue
  | CFalse
  | CEq of cterm * cterm * cterm
  | CMem of cterm * Regex_engine.Regex.t
  | CNot of cformula
  | CAnd of cformula * cformula
  | COr of cformula * cformula
  | CExists of int * guide * cformula  (** slot, guide of the body's NNF *)
  | CForall of int * guide * cformula  (** slot, guide of the negated body's NNF *)

type compiled = {
  free : string array; (* sorted free variables; free.(i) lives in slot i *)
  slots : int;
  body : cformula;
  free_guides : guide array Lazy.t;
      (* for [assignments]: the guide of free.(i) when free.(0 .. i-1) are
         bound *)
}

(* Alpha-rename every quantifier that rebinds a name already free or bound
   elsewhere in [f], so all binders are distinct from each other and from
   the free variables. Then every variable has one slot, and whether a
   guide atom's variable is bound when the guide runs is static. *)
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

let compile f =
  let f = distinct_binders f in
  let free = Array.of_list (Formula.free_vars f) in
  let nfree = Array.length free in
  let slot_of = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace slot_of x i) free;
  let rec number (f : Formula.t) =
    match f with
    | True | False | Eq _ | Mem _ -> ()
    | Not g -> number g
    | And (a, b) | Or (a, b) ->
        number a;
        number b
    | Exists (y, g) | Forall (y, g) ->
        Hashtbl.replace slot_of y (Hashtbl.length slot_of);
        number g
  in
  number f;
  let cterm = function
    | Term.Var x -> Slot (Hashtbl.find slot_of x)
    | Term.Const c -> Letter c
    | Term.Eps -> Eps
  in
  (* only letters and [~env] bindings can be ⊥; quantified values are ids *)
  let may_be_bottom = function Letter _ -> true | Slot s -> s < nfree | Eps -> false in
  let guide_of x known nnf_body =
    let gterm = function
      | Term.Var y when y = x -> X
      | Term.Var y when not (List.mem y known) -> Later
      | t -> Known (cterm t)
    in
    let eq_guide t1 t2 t3 =
      let g1 = gterm t1 and g2 = gterm t2 and g3 = gterm t3 in
      let known_terms =
        List.filter_map (function Known t -> Some t | X | Later -> None) [ g1; g2; g3 ]
      in
      let gen =
        match (g1, g2, g3) with
        | Known t1, _, _ when g2 = X || g3 = X -> Split (t1, g2, g3)
        | X, Known t2, Known t3 -> Concat (t2, t3)
        | X, Known t2, _ -> Prefix t2
        | X, _, Known t3 -> Suffix t3
        | _ -> No_gen
      in
      match (List.filter may_be_bottom known_terms, gen) with
      | [], No_gen -> G_none
      | bottoms, gen -> G_eq (bottoms, gen)
    in
    let rec go (f : Formula.t) =
      match f with
      | Eq (t1, t2, t3) -> eq_guide t1 t2 t3
      | Mem (Term.Var y, r) when y = x -> (
          match Regex_engine.Regex.language_words r with Some ws -> G_words ws | None -> G_none)
      | True | False | Not _ | Mem _ -> G_none
      | And (a, b) -> (
          match (go a, go b) with G_none, g | g, G_none -> g | ga, gb -> G_and (ga, gb))
      | Or (a, b) -> (
          match (go a, go b) with G_none, _ | _, G_none -> G_none | ga, gb -> G_or (ga, gb))
      | Exists (_, g) | Forall (_, g) -> go g
    in
    go nnf_body
  in
  let rec comp known (f : Formula.t) =
    match f with
    | True -> CTrue
    | False -> CFalse
    | Eq (t1, t2, t3) -> CEq (cterm t1, cterm t2, cterm t3)
    | Mem (t, r) -> CMem (cterm t, r)
    | Not g -> CNot (comp known g)
    | And (a, b) -> CAnd (comp known a, comp known b)
    | Or (a, b) -> COr (comp known a, comp known b)
    | Exists (x, g) ->
        CExists (Hashtbl.find slot_of x, guide_of x known (Formula.nnf g), comp (x :: known) g)
    | Forall (x, g) ->
        CForall
          ( Hashtbl.find slot_of x,
            guide_of x known (Formula.nnf (Formula.Not g)),
            comp (x :: known) g )
  in
  let free_list = Array.to_list free in
  {
    free;
    slots = Hashtbl.length slot_of;
    body = comp free_list f;
    free_guides =
      lazy
        (let nnf = Formula.nnf f in
         Array.mapi (fun i x -> guide_of x (List.filteri (fun j _ -> j < i) free_list) nnf) free);
  }

let compiled_cache : (Formula.t, compiled) Hashtbl.t = Hashtbl.create 64

let compile_cached f =
  match Hashtbl.find_opt compiled_cache f with
  | Some c -> c
  | None ->
      let c = compile f in
      if Hashtbl.length compiled_cache > 512 then Hashtbl.reset compiled_cache;
      Hashtbl.add compiled_cache f c;
      c

let rec ceval ix env (f : cformula) =
  match f with
  | CTrue -> true
  | CFalse -> false
  | CEq (t1, t2, t3) -> concat_holds ix (value ix env t1) (value ix env t2) (value ix env t3)
  | CMem (t, r) ->
      let v = value ix env t in
      v >= 0 && Regex_engine.Regex.matches r (Fb.extract ix.fb v)
  | CNot g -> not (ceval ix env g)
  | CAnd (a, b) -> ceval ix env a && ceval ix env b
  | COr (a, b) -> ceval ix env a || ceval ix env b
  | CExists (s, guide, g) -> (
      let body v =
        env.(s) <- v;
        ceval ix env g
      in
      match domain ix env guide with
      | Some ids -> List.exists body ids
      | None ->
          let size = Fb.size ix.fb in
          let rec scan v = v < size && (body v || scan (v + 1)) in
          scan 0)
  | CForall (s, guide, g) -> (
      let body v =
        env.(s) <- v;
        ceval ix env g
      in
      (* the guidance atoms cover every potential counterexample, so values
         outside the domain satisfy the body vacuously *)
      match domain ix env guide with
      | Some ids -> List.for_all body ids
      | None ->
          let size = Fb.size ix.fb in
          let rec scan v = v >= size || (body v && scan (v + 1)) in
          scan 0)

let eval ~guided ~env st f =
  let c = compile_cached f in
  let unbound = List.filter (fun x -> not (List.mem_assoc x env)) (Array.to_list c.free) in
  if unbound <> [] then
    invalid_arg
      (Printf.sprintf "Eval.holds: unbound free variables: %s" (String.concat ", " unbound));
  let ix = index ~guided st in
  let slots = Array.make c.slots (-1) in
  Array.iteri
    (fun i x -> slots.(i) <- Option.value (Fb.id_of ix.fb (List.assoc x env)) ~default:(-1))
    c.free;
  ceval ix slots c.body

let holds ?(env = []) st f = eval ~guided:true ~env st f
let holds_naive ?(env = []) st f = eval ~guided:false ~env st f

let language_member ?sigma f w =
  if not (Formula.is_sentence f) then invalid_arg "Eval.language_member: formula has free variables";
  let sigma =
    match sigma with
    | Some cs -> cs
    | None -> List.sort_uniq Char.compare (Formula.constants f @ Words.Word.alphabet w)
  in
  holds (Structure.make ~sigma w) f

let language_upto ?sigma f ~max_len =
  let alpha = match sigma with Some cs -> cs | None -> Formula.constants f in
  Words.Word.enumerate ~alphabet:alpha ~max_len
  |> List.filter (fun w -> language_member ~sigma:alpha f w)

let assignments st f =
  let c = compile_cached f in
  let guides = Lazy.force c.free_guides in
  let ix = index ~guided:true st in
  let env = Array.make c.slots (-1) in
  let nfree = Array.length c.free in
  let out = ref [] in
  let rec go i =
    if i = nfree then begin
      if ceval ix env c.body then
        out := List.init nfree (fun j -> (c.free.(j), Fb.extract ix.fb env.(j))) :: !out
    end
    else
      let bind v =
        env.(i) <- v;
        go (i + 1)
      in
      match domain ix env guides.(i) with
      | Some ids -> List.iter bind ids
      | None ->
          for v = 0 to Fb.size ix.fb - 1 do
            bind v
          done
  in
  go 0;
  List.sort_uniq compare !out

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
