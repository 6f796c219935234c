(** The τ_Σ-structure 𝔄_w that represents a word (Section 2).

    Universe = Facs(w) ∪ {⊥}; R∘ = concatenation restricted to factors;
    one constant per letter of Σ (interpreted as ⊥ when the letter does not
    occur in [w]) plus ε. *)

type t

val make : ?sigma:char list -> string -> t
(** [make ~sigma w]: the structure for [w] over alphabet Σ ⊇ letters(w).
    [sigma] defaults to the letters occurring in [w]. Raises
    [Invalid_argument] if [w] uses letters outside [sigma]. *)

val word : t -> string
val sigma : t -> char list
val facs : t -> Words.Factors.t

val universe : t -> string list
(** Facs(w), length-lex sorted (⊥ is handled implicitly: absent constants
    evaluate to [None] in {!const_value}). *)

val universe_size : t -> int
val mem : t -> string -> bool

val const_value : t -> char -> string option
(** [Some "a"] when the letter occurs in the word, [None] (⊥) otherwise. *)

val constant_vector : t -> (string * string option) list
(** ⟨𝔄⟩: the interpretations of all constant symbols — each letter of Σ in
    order, then ε — as (name, value-or-⊥) pairs. Used by games, where the
    constant vector is appended to the players' choices. *)

val pp : Format.formatter -> t -> unit
