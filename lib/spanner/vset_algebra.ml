module V = Vset_automaton

let union a b =
  if V.vars a <> V.vars b then invalid_arg "Vset_algebra.union: different variable sets";
  let na = V.states a in
  let shift_b q = q + na in
  let fresh = na + V.states b in
  let transitions =
    V.transitions a
    @ List.map (fun (q, l, q') -> (shift_b q, l, shift_b q')) (V.transitions b)
    @ [ (fresh, V.Open "", V.start a); (fresh, V.Open "", shift_b (V.start b)) ]
  in
  V.make ~states:(fresh + 1) ~start:fresh
    ~accepting:(V.accepting a @ List.map shift_b (V.accepting b))
    ~transitions

let project vars a =
  let keep x = List.mem x vars in
  let transitions =
    List.map
      (fun (q, l, q') ->
        match l with
        | V.Open x when x <> "" && not (keep x) -> (q, V.Open "", q')
        | V.Close x when x <> "" && not (keep x) -> (q, V.Open "", q')
        | l -> (q, l, q'))
      (V.transitions a)
  in
  V.make ~states:(V.states a) ~start:(V.start a) ~accepting:(V.accepting a) ~transitions

let join a b =
  (* position-synchronized product: Read letters advance both sides;
     operations on shared variables fire simultaneously; private
     operations and ε interleave. *)
  let shared = List.filter (fun x -> List.mem x (V.vars b)) (V.vars a) in
  let nb = V.states b in
  let encode qa qb = (qa * nb) + qb in
  let transitions = ref [] in
  let add q l q' = transitions := (q, l, q') :: !transitions in
  List.iter
    (fun (qa, la, qa') ->
      match la with
      | V.Read _ | V.Any ->
          (* pair with every letter move of b that reads the same letter *)
          List.iter
            (fun (qb, lb, qb') ->
              match (la, lb) with
              | V.Read c, V.Read c' when c' = c -> add (encode qa qb) la (encode qa' qb')
              | (V.Read _ as l), V.Any | V.Any, (V.Read _ as l) | (V.Any as l), V.Any ->
                  add (encode qa qb) l (encode qa' qb')
              | _ -> ())
            (V.transitions b)
      | V.Open x when x <> "" && List.mem x shared ->
          List.iter
            (fun (qb, lb, qb') ->
              if lb = V.Open x then add (encode qa qb) (V.Open x) (encode qa' qb'))
            (V.transitions b)
      | V.Close x when List.mem x shared ->
          List.iter
            (fun (qb, lb, qb') ->
              if lb = V.Close x then add (encode qa qb) (V.Close x) (encode qa' qb'))
            (V.transitions b)
      | l ->
          (* ε or private to a: b stays put *)
          for qb = 0 to nb - 1 do
            add (encode qa qb) l (encode qa' qb)
          done)
    (V.transitions a);
  (* b's ε and private moves with a staying put *)
  List.iter
    (fun (qb, lb, qb') ->
      match lb with
      | V.Read _ | V.Any -> ()
      | V.Open x when x <> "" && List.mem x shared -> ()
      | V.Close x when List.mem x shared -> ()
      | l ->
          for qa = 0 to V.states a - 1 do
            add (encode qa qb) l (encode qa qb')
          done)
    (V.transitions b);
  let accepting =
    List.concat_map (fun qa -> List.map (fun qb -> encode qa qb) (V.accepting b)) (V.accepting a)
  in
  V.make
    ~states:(V.states a * nb)
    ~start:(encode (V.start a) (V.start b))
    ~accepting ~transitions:!transitions

let rec of_algebra (e : Algebra.expr) =
  match e with
  | Algebra.Extract f -> Some (Regex_formula.compile f)
  | Algebra.Union (x, y) -> (
      match (of_algebra x, of_algebra y) with
      | Some a, Some b -> Some (union a b)
      | _ -> None)
  | Algebra.Join (x, y) -> (
      match (of_algebra x, of_algebra y) with
      | Some a, Some b -> Some (join a b)
      | _ -> None)
  | Algebra.Project (vars, x) -> Option.map (project vars) (of_algebra x)
  | Algebra.Diff _ | Algebra.Select_eq _ | Algebra.Select_rel _ -> None

module Recognizable = struct
  type t = { arity : int; products : Regex_engine.Regex.t list list }

  let product langs =
    if langs = [] then invalid_arg "Recognizable.product: empty product";
    { arity = List.length langs; products = [ langs ] }

  let union a b =
    if a.arity <> b.arity then invalid_arg "Recognizable.union: arity mismatch";
    { arity = a.arity; products = a.products @ b.products }

  let holds t tuple =
    if List.length tuple <> t.arity then invalid_arg "Recognizable.holds: arity mismatch";
    List.exists
      (fun product -> List.for_all2 (fun r w -> Regex_engine.Regex.matches r w) product tuple)
      t.products

  let constrain_var ~sigma x gamma e =
    (* content(x) ∈ L(γ) ⟺ x's span also matched by Σ*·x{γ}·Σ* *)
    let wild = Regex_formula.of_regex (Regex_engine.Regex.all_words sigma) in
    Algebra.Join
      (e, Algebra.Extract (Regex_formula.Cat (wild, Regex_formula.Cat (Regex_formula.Bind (x, Regex_formula.of_regex gamma), wild))))

  let selection ?(sigma = [ 'a'; 'b' ]) t vars e =
    if List.length vars <> t.arity then invalid_arg "Recognizable.selection: arity mismatch";
    t.products
    |> List.map (fun product ->
           List.fold_left2 (fun acc x gamma -> constrain_var ~sigma x gamma acc) e vars product)
    |> function
    | [] -> invalid_arg "Recognizable.selection: empty relation"
    | first :: rest -> List.fold_left (fun acc branch -> Algebra.Union (acc, branch)) first rest
end
