(** Factor sets: the set [Facs(w)] of all factors of a word, with interning.

    The universe of the τ_Σ-structure 𝔄_w is [Facs(w) ∪ {⊥}]; this module
    provides the [Facs(w)] part as an indexed, string-keyed set (the
    universe and membership of {!Fc.Structure}). The game solver and the
    model checker compute on the suffix-automaton ids of
    {!Factor_bitset} instead. *)

type t
(** An immutable factor set of some word, with O(1) membership and
    string↔id conversion. Ids are [0 .. size t - 1]; id [0] is always the
    empty word and ids are assigned in length-lexicographic order. *)

val of_word : string -> t
(** [of_word w] computes [Facs(w)]. Costs O(|w|³) time/space in the worst
    case, which is fine for the word lengths the solver can handle anyway. *)

val word : t -> string
(** The word this factor set was built from. *)

val size : t -> int
(** Number of distinct factors, including the empty word. *)

val mem : t -> string -> bool
val id_of : t -> string -> int option
val id_of_exn : t -> string -> int

val factor_of : t -> int -> string
(** Raises [Invalid_argument] for out-of-range ids. *)

val to_list : t -> string list
(** All factors in length-lexicographic order. *)

val iter : (string -> unit) -> t -> unit
val fold : ('a -> string -> 'a) -> 'a -> t -> 'a

val inter : t -> t -> string list
(** Factors common to both sets, in length-lexicographic order. *)

val max_common_factor_length : t -> t -> int
(** Length of the longest common factor — the quantity [r] in the
    Pseudo-Congruence Lemma. *)

val equal_sets : t -> t -> bool
(** Extensional equality of the two factor sets. *)
