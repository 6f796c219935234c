(* Order statistics for latencies and for comparing sets of runs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a nonempty array, with the number of
   samples above the rank (a tail percentile is only reported as such
   with at least ten samples beyond it). *)
let percentile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  (a.(min n rank - 1), n - rank)

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so that spreads printed by
   [--compare] are the ones a Python check of the same values sees. *)
let quartiles xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> invalid_arg "Stats.quartiles: no data"
  | 1 -> (a.(0), a.(0), a.(0))
  | ld ->
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (q 1, q 2, q 3)

let median xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> invalid_arg "Stats.median: no data"
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
