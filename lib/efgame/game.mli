(** The k-round Ehrenfeucht-Fraïssé game for FC (Section 3), with an
    exhaustive solver deciding ≡_k.

    The solver performs the full ∀(Spoiler move) ∃(Duplicator response)
    search with (a) incremental partial-isomorphism pruning, (b)
    memoization on canonicalized positions, (c) skipping of dominated
    Spoiler moves (repeating an already-played element or a constant value
    forces Duplicator's answer and changes nothing), and (d) {e derived}
    Duplicator candidates — responses forced by the concatenation pattern
    of the position — tried before heuristically-ordered ones, so that
    genuinely equivalent words are verified close to the Spoiler-branching
    lower bound.

    Verdicts are three-valued: a node budget yields [Unknown] instead of a
    wrong answer, and the Duplicator-restricted mode (which only ever makes
    Duplicator weaker) upgrades positive answers to sound [Equiv] verdicts
    on instances the full search cannot finish. *)

type side = Left | Right

type move = { side : side; element : string }

type verdict = Equiv | Not_equiv | Unknown

type mode =
  | Full  (** complete search: both verdicts exact *)
  | Duplicator_limited of int
      (** Duplicator tries only the derived candidates plus the [n]
          best-scored responses (on unary instances: the forced reply,
          else the [n] best in {!Unary}'s own order); [Equiv] answers
          remain sound, failures are reported as [Unknown]. *)

type config

val make : ?sigma:char list -> string -> string -> config
(** [make w v]: a game over 𝔄_w (Left) and 𝔅_v (Right). Σ defaults to the
    union of the two words' letters. *)

val left_word : config -> string
val right_word : config -> string

val base_partial_iso : config -> bool
(** Whether the constant vectors alone form a partial isomorphism (if not,
    the words are already distinguished at 0 rounds — e.g. when a letter
    occurs in only one of them). *)

type stats = {
  nodes : int;
  memo_entries : int;
  cache_hits : int;  (** transposition-table hits (0 without [?cache]) *)
  cache_misses : int;
}

val decide :
  ?mode:mode -> ?budget:int -> ?cache:Cache.t -> config -> int -> verdict
(** [decide cfg k]: does Duplicator have a winning strategy for the
    k-round game? [budget] bounds the number of search nodes (default
    50_000_000).

    Unary instances take the arithmetic fast path ({!Unary}); all others
    run on the packed engine ({!Packed}). With [?cache], the unary solver
    consults and stores its shallow positions in the shared table, and
    other instances consult the table at the root and store the root's
    verdict (keys are canonical, see {!Position}). Verdicts do not depend
    on the table. *)

type solver
(** A solver handle for deciding many positions of the same game (e.g.
    by solver-backed strategies). Each call searches afresh; the node
    budget is cumulative over the handle's calls. *)

val solver : ?mode:mode -> ?budget:int -> ?cache:Cache.t -> config -> solver

val solver_wins : solver -> (string * string) list -> int -> verdict
(** [solver_wins s pairs k]: can Duplicator win [k] more rounds from the
    position given by the played [(left, right)] pairs? [Not_equiv] is also
    returned when the position itself is not a partial isomorphism, or
    names an element outside its structure. *)

val decide_with_stats :
  ?mode:mode -> ?budget:int -> ?cache:Cache.t -> config -> int -> verdict * stats
(** [decide] with the search statistics; cache hits and misses are the
    table traffic of this call. *)

val equiv :
  ?sigma:char list -> ?mode:mode -> ?budget:int -> ?cache:Cache.t ->
  string -> string -> int -> verdict
(** Convenience wrapper building the config. *)

val winning_line : ?budget:int -> config -> int -> (move * string option) list option
(** When Spoiler wins the k-round game, a principal variation: Spoiler's
    winning move each round together with the Duplicator response explored
    (or [None] when no response preserves the partial isomorphism).
    Returns [None] when Duplicator wins or the budget runs out; the
    budget is cumulative over the whole extraction. *)

val pp_move : Format.formatter -> move -> unit
val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Shared with strategies} *)

val response_candidates :
  config -> Partial_iso.entry list -> side -> string -> string list
(** The ordered Duplicator candidate list used by the solver: derived
    candidates first, then all other factors of the opposite structure by
    heuristic score. Exposed for solver-backed strategies and for the
    ordering-ablation bench. *)

val derived_candidates :
  config -> Partial_iso.entry list -> side -> string -> string list
(** The derived prefix of {!response_candidates}: replies forced by the
    concatenation pattern of the position, in discovery order. In
    [Duplicator_limited n] mode the solver tries these, then the [n]
    best-scored others. *)

val structures : config -> Fc.Structure.t * Fc.Structure.t
val constant_entries : config -> Partial_iso.entry list

val unary_of : config -> (char * int * int) option
(** [Some (c, p, q)] when both words are nonempty powers of the same
    letter [c] — the instances eligible for the {!Unary} fast path. *)
