(** Model checking FC and FC[REG] formulas over word structures.

    Quantifiers range over Facs(w). The evaluator is {e guided}: before
    enumerating the whole universe for a quantified variable, it extracts
    {e required atoms} — atoms entailed by the body — and, when such an atom
    relates the variable to already-bound values, enumerates only the
    (complete) candidate set that the atom admits: single values, splits,
    prefixes or suffixes of known factors, or members of finite regular
    constraints. This turns the ∀x∀y… guard-chains produced by
    {!Formula.eq_concat} into near-linear joins — a miniature query planner
    — and is what makes formulas like φ_fib checkable on real words.
    A naive (unguided) mode is kept for differential testing and as the
    ablation baseline. *)

type env = (string * string) list
(** Partial assignment from variables to factors. *)

val term_value : Structure.t -> env -> Term.t -> string option
(** [None] is ⊥ (an absent letter constant, or an unbound variable). *)

val holds : ?env:env -> Structure.t -> Formula.t -> bool
(** [holds st φ]: (𝔄_w, σ) ⊨ φ. Free variables of [φ] must be bound by
    [env] (unbound free variables raise [Invalid_argument]); bindings of
    other names are ignored, even where [φ] quantifies those names. *)

val holds_naive : ?env:env -> Structure.t -> Formula.t -> bool
(** Same semantics, no guidance; for tests and benches. *)

val language_member : ?sigma:char list -> Formula.t -> string -> bool
(** [language_member φ w]: w ∈ L(φ) for a sentence φ. The structure's
    alphabet defaults to letters(φ) ∪ letters(w). Raises
    [Invalid_argument] when φ has free variables. *)

val language_upto : ?sigma:char list -> Formula.t -> max_len:int -> string list
(** All members of L(φ) of length ≤ max_len over the given alphabet
    (default: letters of φ). *)

val assignments : Structure.t -> Formula.t -> env list
(** All satisfying assignments of the free variables, each sorted by
    variable name; duplicate-free. *)

val relation : Structure.t -> Formula.t -> vars:string list -> string list list
(** The relation defined by φ on the structure, as tuples in the order of
    [vars] (which must cover the free variables). *)
