(* Reference FO[EQ] evaluator, the oracle for [Fc.Fo_eq.holds]: an
   association-list interpreter. Each [Factor_eq] materialises both
   intervals with [String.sub]; a quantifier conses its binding in front,
   so an inner binder shadows an outer one of the same name. *)

open Fc.Fo_eq

let holds ?(env = []) w f =
  let n = String.length w in
  let pos x e =
    match List.assoc_opt x e with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Fo_eq.holds: unbound variable %s" x)
  in
  let interval i j = if j < i then "" else String.sub w i (j - i + 1) in
  let rec eval e = function
    | True -> true
    | False -> false
    | Less (x, y) -> pos x e < pos y e
    | Eq (x, y) -> pos x e = pos y e
    | Letter (c, x) -> w.[pos x e] = c
    | Factor_eq (x1, y1, x2, y2) -> interval (pos x1 e) (pos y1 e) = interval (pos x2 e) (pos y2 e)
    | Not f -> not (eval e f)
    | And (a, b) -> eval e a && eval e b
    | Or (a, b) -> eval e a || eval e b
    | Exists (x, f) ->
        let rec scan i = i < n && (eval ((x, i) :: e) f || scan (i + 1)) in
        scan 0
    | Forall (x, f) ->
        let rec scan i = i >= n || (eval ((x, i) :: e) f && scan (i + 1)) in
        scan 0
  in
  eval env f
