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
    ablation baseline.

    {b Evaluation on ids and slots.} Strings exist only at this
    interface. Each call indexes the structure's word once: a
    {!Words.Factor_bitset}, its position table id(w[i, i+l)) (O(|w|²)),
    the ids of the letter constants, and a generation-stamp array.
    Formulas compile once (bounded cache) after their binders are renamed
    apart, so every variable has its own slot of an [int array]
    environment, and each quantifier carries a guide compiled from its
    body. An atom t₁ ≐ t₂·t₃ is a length check plus two table lookups;
    candidate generators emit ids from the table and deduplicate them
    with the stamps.

    {b ⊥.} A value is a factor id or ⊥: an absent letter constant, or a
    [~env] binding that is not a factor of the word. ⊥ falsifies every
    atom it occurs in, [Eq] and [Mem] alike (so a negated atom holds).
    On [Eq] atoms this is what a string reading gives anyway, since a
    concatenation equal to a factor has factors for parts; a [Mem] atom
    does not test a non-factor binding against its regular expression.

    {b Observability.} The counters [fc.quantifier_nodes] (quantifier and
    free-variable domains enumerated), [fc.candidates] (candidates the
    guides generated for them) and [fc.unguided] (domains that fell back to
    the whole universe) cost one atomic load each while {!Obs.Metrics} is
    disabled. *)

type env = (string * string) list
(** Partial assignment from variables to factors. *)

val term_value : Structure.t -> env -> Term.t -> string option
(** The string reading of a term: [None] is ⊥ (an absent letter
    constant, or an unbound variable). *)

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
