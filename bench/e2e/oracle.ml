(* Reference answers computed by plain string code. None of it calls
   into the libraries being measured, so a wrong answer there cannot be
   mirrored here. *)

let is_square w =
  let n = String.length w in
  n mod 2 = 0 && String.sub w 0 (n / 2) = String.sub w (n / 2) (n / 2)

(* v·b·v for some v *)
let is_vbv w =
  let n = String.length w in
  n mod 2 = 1
  && w.[n / 2] = 'b'
  && String.sub w 0 (n / 2) = String.sub w ((n / 2) + 1) (n / 2)

let is_cube_free w =
  let n = String.length w in
  let rec equal i j len = len = 0 || (w.[i] = w.[j] && equal (i + 1) (j + 1) (len - 1)) in
  let cube_at i len = equal i (i + len) len && equal i (i + (2 * len)) len in
  let rec scan i len =
    if len = 0 then true
    else if i + (3 * len) > n then scan 0 (len - 1)
    else (not (cube_at i len)) && scan (i + 1) len
  in
  scan 0 (n / 3)

(* Every occurrence of any of [words] in [doc], as sorted (start, stop)
   spans. *)
let occurrences words doc =
  let n = String.length doc in
  let at i w =
    let l = String.length w in
    i + l <= n && String.sub doc i l = w
  in
  List.concat_map
    (fun w -> List.filter_map (fun i -> if at i w then Some (i, i + String.length w) else None)
                (List.init n Fun.id))
    words
  |> List.sort_uniq compare

(* Entries a completed ≡₃ unary scan to [n] leaves in its table: one
   top-level verdict per pair 3 ≤ p < q ≤ n. (Pairs with p ≤ 2 are
   settled without a table entry.) This is 4,371 at n = 96 and 3,003 at
   n = 80, the counts the frontier and fleet reports have carried since
   the persisted-table format landed. *)
let triangle_entries n = if n < 4 then 0 else (n - 2) * (n - 3) / 2

(* A square-free word over {a, b, c} (the difference sequence of the
   Thue-Morse word), hence cube-free: the true instances for the
   cube-freeness checks. *)
let square_free_ternary n =
  let tm i =
    let rec ones i = if i = 0 then 0 else (i land 1) + ones (i lsr 1) in
    ones i land 1
  in
  String.init n (fun i -> "abc".[tm (i + 1) - tm i + 1])
