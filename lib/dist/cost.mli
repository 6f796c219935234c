(** The shard price: estimated solve work as a function of triangle
    position, so {!Manifest} can cut windows equal in expected {e work}
    instead of pair count (deep-q shards dominate wall time; equal-cost
    windows shrink the fleet's drain tail).

    There is one price: every pair (p, q) in row [q] costs [(q+1)^2],
    the solver's roughly quadratic node growth in the word length. *)

val window_cost : int -> int -> float
(** [window_cost lo hi] — Σ pair costs over the half-open index window
    [lo, hi). O(rows touched), not O(pairs). *)

val tile : max_n:int -> shards:int -> (int * int) array
(** Cut the triangle for [max_n] into [shards] nonempty windows of
    near-equal cost, tiling [0, total) exactly (capped at one pair per
    shard). [Invalid_argument] on nonsensical parameters. *)
