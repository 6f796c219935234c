(** Regex formulas: regular expressions with capture variables (the
    extractors of the document-spanner framework, Section 1).

    A regex formula is {e functional} when every way of matching the whole
    document binds every variable exactly once (Fagin et al.); only
    functional formulas are evaluated. The introduction's example is
    [Σ* · x{acheive ∨ beginning ∨ …} · Σ*]. *)

type t =
  | Empty
  | Eps
  | Char of char
  | Alt of t * t
  | Cat of t * t
  | Star of t
  | Bind of string * t  (** x{…} *)

val vars : t -> string list
(** Variables bound anywhere in the formula, sorted. *)

val is_functional : t -> bool
(** Syntactic functionality: both branches of every ∨ bind the same
    variables, concatenations bind disjoint sets, starred subformulas and
    rebindings bind none. *)

val compile : t -> Vset_automaton.t
(** Thompson construction; [Bind (x, f)] becomes ⊢x · f · x⊣. No
    functionality check. *)

val eval : t -> string -> Relation.t
(** All matches of the whole document: one row per span assignment. Raises
    [Invalid_argument] when the formula is not functional. The formula is
    compiled once ({!compile}) into a bounded structural cache and run by
    {!Vset_automaton.eval}; cache misses count in the [spanner.compiles]
    metric. *)

val matches_anywhere : t -> string -> Relation.t
(** Every occurrence of γ as a factor, with γ's bindings: {!eval} of
    [Σ* · γ · Σ*], where Σ* is an any-letter self-loop
    ({!Vset_automaton.anywhere}), so one compiled automaton serves every
    document. *)

val of_regex : Regex_engine.Regex.t -> t
(** Variable-free embedding. *)

val to_regex : t -> Regex_engine.Regex.t
(** Forget the variables. *)

val parse : string -> (t, string) result
(** Regex syntax extended with bindings [x{…}] (an identifier directly
    followed by an opening brace). Identifiers are maximal runs of
    [[A-Za-z0-9_]], so [ax{…}] is a binding named [ax] — parenthesize the
    literal, [(a)x{…}], when that is not intended. *)

val parse_exn : string -> t
val pp : Format.formatter -> t -> unit
