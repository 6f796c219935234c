type side = Left | Right
type move = { side : side; element : string }
type verdict = Equiv | Not_equiv | Unknown
type mode = Full | Duplicator_limited of int

type config = {
  left : Fc.Structure.t;
  right : Fc.Structure.t;
  consts : Partial_iso.entry list;
  left_moves : string list; (* candidate Spoiler elements, longest first *)
  right_moves : string list;
  left_all : string list; (* full universes *)
  right_all : string list;
}

let by_desc_length a b =
  let c = compare (String.length b) (String.length a) in
  if c <> 0 then c else String.compare a b

let make ?sigma w v =
  let sigma =
    match sigma with
    | Some cs -> List.sort_uniq Char.compare cs
    | None -> List.sort_uniq Char.compare (Words.Word.alphabet w @ Words.Word.alphabet v)
  in
  let left = Fc.Structure.make ~sigma w and right = Fc.Structure.make ~sigma v in
  let consts = Partial_iso.constant_entries left right in
  let const_values side_proj =
    List.filter_map side_proj consts |> List.sort_uniq String.compare
  in
  let lconsts = const_values fst and rconsts = const_values snd in
  let movable universe skip =
    List.filter (fun f -> not (List.mem f skip)) universe |> List.sort by_desc_length
  in
  {
    left;
    right;
    consts;
    left_moves = movable (Fc.Structure.universe left) lconsts;
    right_moves = movable (Fc.Structure.universe right) rconsts;
    left_all = Fc.Structure.universe left;
    right_all = Fc.Structure.universe right;
  }

let left_word cfg = Fc.Structure.word cfg.left
let right_word cfg = Fc.Structure.word cfg.right
let base_partial_iso cfg = Partial_iso.holds cfg.consts
let structures cfg = (cfg.left, cfg.right)
let constant_entries cfg = cfg.consts

(* ------------------------------------------------------------------ *)
(* Duplicator candidates.                                              *)

(* Orient an entry so that [fst] is the Spoiler's side. *)
let orient side (x, y) = if side = Left then (x, y) else (y, x)
let unorient side (x, y) = if side = Left then (x, y) else (y, x)

let derived_candidates cfg entries side a =
  (* Responses forced (or strongly suggested) by the concatenation pattern
     of the position: if a relates to already-played elements by R∘, the
     response must relate to their partners the same way. *)
  let to_struct = match side with Left -> cfg.right | Right -> cfg.left in
  let oriented = List.map (orient side) entries in
  let known = List.filter_map (fun (x, y) -> match (x, y) with Some x, Some y -> Some (x, y) | _ -> None) oriented in
  let out = ref [] in
  let add r = if not (List.mem r !out) then out := r :: !out in
  List.iter
    (fun (xi, yi) ->
      List.iter
        (fun (xj, yj) ->
          (* a = xi · xj  ⇒  respond yi · yj *)
          if xi ^ xj = a then add (yi ^ yj);
          (* xi = a · xj  ⇒  respond yi with suffix yj removed *)
          if
            String.length xi = String.length a + String.length xj
            && xi = a ^ xj
            && Words.Word.is_suffix ~suffix:yj yi
          then add (String.sub yi 0 (String.length yi - String.length yj));
          (* xi = xj · a  ⇒  respond yi with prefix yj removed *)
          if
            String.length xi = String.length xj + String.length a
            && xi = xj ^ a
            && Words.Word.is_prefix ~prefix:yj yi
          then add (String.sub yi (String.length yj) (String.length yi - String.length yj)))
        known)
    known;
  List.rev !out |> List.filter (Fc.Structure.mem to_struct)

let score ~from_word ~to_word a r =
  if r = a then (-1, 0, 0)
  else
    let lf = String.length from_word and lt = String.length to_word in
    let la = String.length a and lr = String.length r in
    let status_penalty =
      (if Words.Word.is_prefix ~prefix:a from_word = Words.Word.is_prefix ~prefix:r to_word then 0
       else 1)
      + if Words.Word.is_suffix ~suffix:a from_word = Words.Word.is_suffix ~suffix:r to_word then 0
        else 1
    in
    let mirror = abs (lt - lr - (lf - la)) and direct = abs (lr - la) in
    (0, status_penalty, min mirror direct)

let response_candidates cfg entries side a =
  let from_word, to_word, universe =
    match side with
    | Left -> (left_word cfg, right_word cfg, cfg.right_all)
    | Right -> (right_word cfg, left_word cfg, cfg.left_all)
  in
  let derived = derived_candidates cfg entries side a in
  let rest =
    List.filter (fun r -> not (List.mem r derived)) universe
    |> List.map (fun r -> (score ~from_word ~to_word a r, r))
    |> List.sort compare |> List.map snd
  in
  derived @ rest

(* ------------------------------------------------------------------ *)
(* Solver.                                                             *)

type stats = {
  nodes : int;
  memo_entries : int;
  cache_hits : int;
  cache_misses : int;
}

(* Both words powers of the same single letter (and nonempty, so the
   letter constant is defined on both sides): eligible for the arithmetic
   fast path of [Unary]. *)
let unary_of cfg =
  let w = Fc.Structure.word cfg.left and v = Fc.Structure.word cfg.right in
  if w = "" || v = "" then None
  else
    let c = w.[0] in
    if String.for_all (Char.equal c) w && String.for_all (Char.equal c) v then
      Some (c, String.length w, String.length v)
    else None

type solver = {
  cfg : config;
  mode : mode;
  budget : int;
  cache : Cache.t option;
  unary : (int * int) option; (* (p, q) of a unary instance *)
  packed : Packed.gstate Lazy.t; (* lazy: unary solvers never build it *)
  mutable nodes : int;
}

let solver ?(mode = Full) ?(budget = 50_000_000) ?cache cfg =
  {
    cfg;
    mode;
    budget;
    cache;
    unary = Option.map (fun (_, p, q) -> (p, q)) (unary_of cfg);
    packed = lazy (Packed.make_gstate cfg.left cfg.right cfg.consts);
    nodes = 0;
  }

let width_of_mode = function Full -> max_int | Duplicator_limited n -> n

(* One engine call from the played [pairs]; the budget bounds the
   handle's running node total. *)
let search s pairs k =
  let width = width_of_mode s.mode in
  match s.unary with
  | Some (p, q) ->
      let init =
        List.map (fun (a, b) -> (String.length a, String.length b)) pairs
      in
      let r, n, m =
        Unary.solve ?cache:s.cache ~limit:width ~budget:(s.budget - s.nodes)
          ~p ~q ~init k
      in
      s.nodes <- s.nodes + n;
      (r, m)
  | None ->
      let r, n, m =
        Packed.run_general (Lazy.force s.packed) ~init:pairs ~width
          ~nodes0:s.nodes ~budget:s.budget k
      in
      s.nodes <- n;
      (r, m)

(* Validate the position, consult the shared table at the root (an exact
   verdict, or an Unknown recorded by a no-stronger search), else search
   and record the root's outcome. The unary solver stores its own
   shallow positions, the root included. *)
let solver_run s pairs k =
  let cfg = s.cfg in
  let width = width_of_mode s.mode in
  let entries =
    List.fold_left (fun acc (a, b) -> (Some a, Some b) :: acc) cfg.consts pairs
  in
  let valid =
    List.for_all
      (fun (a, b) -> Fc.Structure.mem cfg.left a && Fc.Structure.mem cfg.right b)
      pairs
    && Partial_iso.holds entries
  in
  match s.cache with
  | _ when not valid -> (Some false, 0)
  | None -> search s pairs k
  | Some cache -> (
      let key =
        match s.unary with
        | Some (p, q) ->
            Position.unary_key ~p ~q
              (List.map (fun (a, b) -> (String.length a, String.length b)) pairs)
        | None ->
            Position.key ~sigma:(Fc.Structure.sigma cfg.left)
              ~left:(left_word cfg) ~right:(right_word cfg) pairs
      in
      match Cache.lookup cache key ~k with
      | Some _ as exact -> (exact, 0)
      | None when Cache.unknown_reusable cache key ~k ~width ~budget:s.budget ->
          (None, 0)
      | None ->
          let r, m = search s pairs k in
          (match r with
          | None -> Cache.store_unknown cache key ~k ~width ~budget:s.budget
          | Some v ->
              (* limited-mode failures are not genuine Spoiler wins *)
              if s.unary = None && (v || width = max_int) then
                Cache.store cache key ~k v);
          (r, m))

let to_verdict mode result =
  match (result, mode) with
  | Some true, _ -> Equiv
  | Some false, Full -> Not_equiv
  | Some false, Duplicator_limited _ -> Unknown
  | None, _ -> Unknown

let solver_wins s pairs k = to_verdict s.mode (fst (solver_run s pairs k))

let cache_counts = function
  | None -> (0, 0)
  | Some c ->
      let st = Cache.stats c in
      (st.Cache.hits, st.Cache.misses)

let spoiler_moves cfg = function
  | Left -> cfg.left_moves
  | Right -> cfg.right_moves

let decide_with_stats ?(mode = Full) ?(budget = 50_000_000) ?cache cfg k =
  let s = solver ~mode ~budget ?cache cfg in
  let hits0, misses0 = cache_counts cache in
  let result, memo_entries = solver_run s [] k in
  let hits1, misses1 = cache_counts cache in
  ( to_verdict mode result,
    {
      nodes = s.nodes;
      memo_entries;
      cache_hits = hits1 - hits0;
      cache_misses = misses1 - misses0;
    } )

let decide ?mode ?budget ?cache cfg k =
  fst (decide_with_stats ?mode ?budget ?cache cfg k)

let equiv ?sigma ?mode ?budget ?cache w v k =
  decide ?mode ?budget ?cache (make ?sigma w v) k

(* ------------------------------------------------------------------ *)
(* Principal variation extraction.                                     *)

exception Budget_exceeded

let winning_line ?(budget = 50_000_000) cfg k0 =
  if not (base_partial_iso cfg) then Some []
  else
    (* one handle: the budget is cumulative over every probe below *)
    let s = solver ~budget cfg in
    let wins pairs k =
      match solver_wins s pairs k with
      | Equiv -> true
      | Not_equiv -> false
      | Unknown -> raise Budget_exceeded
    in
    let survives side pairs entries k a =
      List.exists
        (fun r ->
          Partial_iso.extension_ok entries (unorient side (Some a, Some r))
          && wins (unorient side (a, r) :: pairs) (k - 1))
        (response_candidates cfg entries side a)
    in
    let breaking_move pairs entries k =
      let try_side side =
        let played (a, b) = match side with Left -> a | Right -> b in
        List.find_opt
          (fun a ->
            (not (List.exists (fun p -> played p = a) pairs))
            && not (survives side pairs entries k a))
          (spoiler_moves cfg side)
        |> Option.map (fun a -> { side; element = a })
      in
      match try_side Left with Some m -> Some m | None -> try_side Right
    in
    let rec build pairs entries k acc =
      if k = 0 then List.rev acc
      else
        match breaking_move pairs entries k with
        | None -> List.rev acc
        | Some m -> (
            (* continue the line with the first Duplicator response that
               at least preserves the partial isomorphism, if any *)
            let entry r = unorient m.side (Some m.element, Some r) in
            match
              List.find_opt
                (fun r -> Partial_iso.extension_ok entries (entry r))
                (response_candidates cfg entries m.side m.element)
            with
            | None -> List.rev ((m, None) :: acc)
            | Some r ->
                build
                  (unorient m.side (m.element, r) :: pairs)
                  (entry r :: entries) (k - 1)
                  ((m, Some r) :: acc))
    in
    try if wins [] k0 then None else Some (build [] cfg.consts k0 [])
    with Budget_exceeded -> None

let pp_move ppf m =
  Format.fprintf ppf "%s:%a"
    (match m.side with Left -> "L" | Right -> "R")
    Words.Word.pp m.element

let pp_verdict ppf = function
  | Equiv -> Format.pp_print_string ppf "≡"
  | Not_equiv -> Format.pp_print_string ppf "≢"
  | Unknown -> Format.pp_print_string ppf "?"
