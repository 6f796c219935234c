(** The EF-game search engine over succinct representations.

    Factors become suffix-automaton ids ({!Words.Factor_bitset}), game
    configurations live in a per-domain {!Arena}, and memo keys are
    packed integers. This module runs the general two-word game (for
    {!Game}) and the one-sided existential game (for {!Existential});
    the unary solver ({!Unary}) shares its scratch space and position
    memo. Verdicts are checked against an independent string-based
    search in test/seed_oracle.ml. *)

exception Budget_exceeded

(** {1 General (two-word) games} *)

type gstate
(** Solver state for a fixed (left, right, constants) instance: both
    factor indexes, cross-word factor maps, move arrays and memoized
    per-move candidate orders. Reusable across solves of the same
    instance. *)

val make_gstate :
  Fc.Structure.t ->
  Fc.Structure.t ->
  (string option * string option) list ->
  gstate
(** Raises [Invalid_argument] if a defined constant is not a factor of
    its word, or if the instance is too large for the candidate sort key
    to fit in 62 bits — which takes structures of several hundred MB
    (the arithmetic is in packed.ml). *)

val run_general :
  gstate ->
  ?init:(string * string) list ->
  ?width:int ->
  ?nodes0:int ->
  budget:int ->
  int ->
  bool option * int * int
(** The ∀∃ search of {!Game} from the position given by the played
    [init] pairs (default: none), returning [(verdict, nodes,
    memo_entries)]. Every [init] element must be a factor of its side's
    word ([Invalid_argument] otherwise); the caller checks that the
    position is a partial isomorphism. Duplicator tries the derived
    replies, then at most [width] (default unlimited) of the other
    candidates. At full width the last round is settled in closed form
    from the pebbled closure (see packed.ml), so no k = 0 leaf is
    visited or counted. [nodes] is counted on top of [nodes0], so a
    caller's running total threads through the budget check. [None] on
    budget exhaustion. *)

val run_existential : gstate -> budget:int -> int -> bool option
(** The one-sided {!Existential} search (Spoiler moves left only,
    directional preservation). The caller performs Existential's
    top-level [preserves consts] check; this is only the recursion. *)

(** {1 Shared with {!Unary}} *)

type scratch = {
  ar : Arena.t;
  mutable keybuf : int array;
  mutable w1buf : int array;
  mutable patbuf : int array;
}
(** Per-domain solve scratch: the arena, the sort buffer
    {!fill_sorted_pairs} writes, the last-round closed forms' closure
    buffer (unary and general), and the general last round's pattern
    tables: for each side, the pebbled entries' xᵢ·xⱼ, xᵢ with suffix
    xⱼ removed, xᵢ with prefix xⱼ removed and √xᵢ, each -1 when
    undefined or over ⊥. All grow on demand and are overwritten by the
    next solve on the domain. *)

val scratch : unit -> scratch

val ensure_w1buf : scratch -> int -> unit
(** Grow [w1buf] to hold at least [n] values. *)

val bits_for : int -> int
(** Smallest [b >= 1] with [v < 2^b]. *)

val fill_sorted_pairs : scratch -> Arena.t -> nconsts:int -> rbits:int -> int
(** Packs the played pairs (arena entries from [nconsts] up) into
    [keybuf], sorted ascending, and returns their count. *)

module Pmemo : sig
  type t

  val create : k0:int -> npairs_at:(int -> int) -> pairbits:int -> t
  val size : t -> int

  val cached : t -> int -> int array -> int -> (unit -> bool) -> bool
  (** [cached m k buf n compute]: the memoized [compute ()] for the
      position keyed by [buf.(0 .. n-1)] at [k] rounds remaining. *)
end

(** {1 Test hooks} *)

val scratch_arena : unit -> Arena.t
(** This domain's solve arena (shared by all solves on the domain).
    Exposed so tests can assert the reuse discipline: resets advance the
    generation, and no configuration survives across solves. *)
