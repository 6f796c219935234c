type label = Read of char | Any | Open of string | Close of string

(* A compiled step does [ops] at the current position, then reads
   [letter] (a char code, [any] or [accept]) and moves to [dst]. *)
type step = { ops : int array; letter : int; dst : int }

let any = 256
let accept = 257

type t = {
  states : int;
  start : int;
  accepting : int list;
  transitions : (int * label * int) list;
  vars : string list;
  steps : step array array;  (** per state; op codes are 2v (open v) and 2v+1 (close v) *)
  by_letter : (int * int) array array;  (** per letter: every step's (source, dst) *)
}

(* the empty variable name encodes ε-moves and is not a variable *)
let is_eps = function Open "" | Close "" -> true | _ -> false

let vars_of_transitions transitions =
  List.filter_map
    (function
      | _, ((Open x | Close x) as l), _ when not (is_eps l) -> Some x
      | _ -> None)
    transitions
  |> List.sort_uniq String.compare

(* Fold the ε- and operation-moves of each state into its letter steps:
   every (ops, letter, dst) reachable by a path of ε and variable
   operations ending in a letter read (or at an accepting state). No valid
   run repeats an operation, so neither does [ops]; that keeps the set
   finite when operations sit on ε-cycles. *)
let compile_steps ~states ~accepting ~transitions ~vars =
  let out = Array.make states [] in
  List.iter (fun (q, l, q') -> out.(q) <- (l, q') :: out.(q)) transitions;
  let final = Array.make states false in
  List.iter (fun q -> final.(q) <- true) accepting;
  let id x = Option.get (List.find_index (String.equal x) vars) in
  Array.init states (fun q ->
      let seen = Hashtbl.create 8 and steps = ref [] in
      let rec close q ops =
        if not (Hashtbl.mem seen (q, ops)) then begin
          Hashtbl.add seen (q, ops) ();
          let step letter dst = steps := { ops = Array.of_list (List.rev ops); letter; dst } :: !steps in
          if final.(q) then step accept (-1);
          List.iter
            (fun (l, q') ->
              match l with
              | Read c -> step (Char.code c) q'
              | Any -> step any q'
              | l when is_eps l -> close q' ops
              | Open x | Close x ->
                  let op = (2 * id x) + (match l with Close _ -> 1 | _ -> 0) in
                  if not (List.mem op ops) then close q' (op :: ops))
            out.(q)
        end
      in
      close q [];
      Array.of_list (List.sort_uniq compare !steps))

let make ~states ~start ~accepting ~transitions =
  let check_state q =
    if q < 0 || q >= states then invalid_arg "Vset_automaton.make: state out of range"
  in
  check_state start;
  List.iter check_state accepting;
  List.iter (fun (q, _, q') -> check_state q; check_state q') transitions;
  let vars = vars_of_transitions transitions in
  let steps = compile_steps ~states ~accepting ~transitions ~vars in
  let by_letter = Array.make (accept + 1) [] in
  Array.iteri (fun q -> Array.iter (fun s -> by_letter.(s.letter) <- (q, s.dst) :: by_letter.(s.letter))) steps;
  { states; start; accepting; transitions; vars; steps; by_letter = Array.map Array.of_list by_letter }

let states t = t.states
let start t = t.start
let accepting t = t.accepting
let vars t = t.vars
let transitions t = t.transitions

let anywhere t =
  let s = t.states and f = t.states + 1 in
  make ~states:(t.states + 2) ~start:s ~accepting:[ f ]
    ~transitions:
      ((s, Any, s) :: (s, Open "", t.start) :: (f, Any, f)
      :: List.map (fun q -> (q, Open "", f)) t.accepting
      @ t.transitions)

let m_run_nodes = Obs.Metrics.counter "spanner.run_nodes"

(* All op-event lists of accepting runs from the start over [doc]. An
   event is [pos * nops + op]. A backward pass marks the co-reachable
   (position, state) nodes; enumeration then walks only those, memoizing
   the sorted, duplicate-free suffix lists of each node, which depend on
   (position, state) alone. Suffixes that repeat an operation can never
   form a row and are dropped. *)
let runs t doc =
  let n = String.length doc and nq = t.states and nops = 2 * List.length t.vars in
  let live = Bytes.make ((n + 1) * nq) '\000' in
  let is_live i q = q < 0 || Bytes.get live ((i * nq) + q) = '\001' in
  let mark i letter =
    Array.iter (fun (q, dst) -> if is_live (i + 1) dst then Bytes.set live ((i * nq) + q) '\001') t.by_letter.(letter)
  in
  mark n accept;
  for i = n - 1 downto 0 do
    mark i (Char.code doc.[i]);
    mark i any
  done;
  let fires i s = if s.letter = accept then i = n else i < n && (s.letter = any || s.letter = Char.code doc.[i]) in
  let memo = Hashtbl.create 64 in
  let rec suffixes i q =
    match Hashtbl.find_opt memo ((i * nq) + q) with
    | Some l -> l
    | None ->
        Obs.Metrics.incr m_run_nodes;
        let extend s acc =
          if not (fires i s && is_live (i + 1) s.dst) then acc
          else
            let next = if s.letter = accept then [ [] ] else suffixes (i + 1) s.dst in
            if s.ops = [||] then List.rev_append next acc
            else
              let fresh rest = not (List.exists (fun e -> Array.mem (e mod nops) s.ops) rest) in
              let here = Array.fold_right (fun op l -> ((i * nops) + op) :: l) s.ops [] in
              List.fold_left (fun acc rest -> if fresh rest then (here @ rest) :: acc else acc) acc next
        in
        let l = List.sort_uniq (List.compare Int.compare) (Array.fold_right extend t.steps.(q) []) in
        Hashtbl.add memo ((i * nq) + q) l;
        l
  in
  if is_live 0 t.start then suffixes 0 t.start else []

(* The row of an event list, if it opens and then closes every variable
   exactly once. *)
let row t events =
  let nv = List.length t.vars in
  let opened = Array.make nv (-1) and spans = Array.make nv None in
  let ok (e : int) =
    let pos = e / (2 * nv) and op = e mod (2 * nv) in
    let v = op / 2 in
    if op land 1 = 0 then opened.(v) < 0 && (opened.(v) <- pos; true)
    else opened.(v) >= 0 && spans.(v) = None && (spans.(v) <- Some (Span.make opened.(v) pos); true)
  in
  if List.for_all ok events && Array.for_all Option.is_some spans then
    Some (Array.to_list (Array.map Option.get spans))
  else None

let eval t doc = Relation.make ~schema:t.vars (List.filter_map (row t) (runs t doc))

let is_functional t =
  (* reachability over (state, per-variable Unseen/Opened/Closed); every
     accepting abstract configuration must close all variables *)
  let module S = Set.Make (struct
    type nonrec t = int * (string * int) list

    let compare = compare
  end) in
  let init = List.map (fun x -> (x, 0)) t.vars in
  let step (state, st) =
    List.filter_map
      (fun (q, l, q') ->
        if q <> state then None
        else
          match l with
          | Read _ | Any -> Some (q', st)
          | l when is_eps l -> Some (q', st)
          | Open x -> (
              match List.assoc x st with
              | 0 -> Some (q', (x, 1) :: List.remove_assoc x st |> List.sort compare)
              | _ -> None)
          | Close x -> (
              match List.assoc x st with
              | 1 -> Some (q', (x, 2) :: List.remove_assoc x st |> List.sort compare)
              | _ -> None))
      t.transitions
  in
  let rec explore frontier seen =
    match frontier with
    | [] -> seen
    | c :: rest ->
        if S.mem c seen then explore rest seen
        else explore (step c @ rest) (S.add c seen)
  in
  let seen = explore [ (t.start, List.sort compare init) ] S.empty in
  S.for_all
    (fun (state, st) ->
      (not (List.mem state t.accepting)) || List.for_all (fun (_, s) -> s = 2) st)
    seen
