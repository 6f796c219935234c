(** Succinct factor sets backed by the suffix automaton.

    [Facs(w)] with every factor represented by a dense integer id derived
    from the automaton's end-position classes: state [v] owns the
    contiguous id block of its class (lengths
    [state_len (link v) + 1 .. state_len v]), and ε is id 0. All queries
    — membership, concatenation, affix tests — are automaton walks or
    character comparisons against the original word; no query ever
    allocates a substring. This is the factor representation of the
    solver engine ({!Efgame.Packed}) and of the FC model checker
    ({!Fc.Eval}, which adds the {!position_ids} table); the explicit
    string-keyed {!Factors} set backs {!Fc.Structure}, and the two are
    differentially tested against each other.

    Ids are {e not} ordered by length or lexicographically (they follow
    automaton state numbering); callers needing a semantic order sort ids
    once at setup via {!extract}. *)

type t

val of_word : string -> t
(** Build the index: suffix automaton + id assignment + word-prefix /
    word-suffix bitsets. O(|w|²) for the id tables (there are up to
    |w|(|w|+1)/2 + 1 distinct factors), O(|w| · |Σ|) for the automaton. *)

val word : t -> string
val size : t -> int
(** Number of distinct factors, including ε. Ids are [0 .. size - 1]. *)

val id_of : t -> string -> int option
(** O(|u|) membership + interning walk. [id_of t "" = Some 0]. *)

val position_ids : t -> int array array
(** [(position_ids t).(i).(l)] is the id of [w[i .. i+l-1]] for
    [0 <= i <= |w|] and [0 <= l <= |w| - i] (row [i] has [|w| - i + 1]
    entries). One automaton walk per start offset, O(|w|²); not part of
    {!of_word}, so indexes that never ask for it do not pay for it. *)

val id_of_sub : t -> string -> off:int -> len:int -> int
(** Id of the substring [s.[off .. off+len-1]] of a foreign string [s],
    or -1 when it is not a factor — the cross-index lookup used to map a
    factor of one word into the factor set of another without
    allocating. *)

val extract : t -> int -> string
(** The factor as a string (allocates; setup/diagnostic use only). *)

val length : t -> int -> int
val start : t -> int -> int
(** Start offset of a representative (leftmost) occurrence in [word t]. *)

val is_word_prefix : t -> int -> bool
val is_word_suffix : t -> int -> bool
(** Bitset tests: is the factor a prefix (suffix) of the whole word? *)

val concat : t -> int -> int -> int
(** [concat t i j] is the id of factor [i] · factor [j] when the
    concatenation is itself a factor, and -1 otherwise. Memoized; the
    uncached cost is a walk of [length t j] transitions. *)

val sub_id : t -> int -> off:int -> len:int -> int
(** Id of the given substring of factor [i] (always a factor). Raises
    [Invalid_argument] when the range is out of bounds. *)

val is_prefix_of : t -> int -> int -> bool
(** [is_prefix_of t i j]: is factor [i] a prefix of factor [j]? *)

val is_suffix_of : t -> int -> int -> bool

val equal_factors : t -> int -> string -> bool
(** Does factor [i] spell exactly [u]? Character comparison, no
    allocation. *)

(** Mutable bitsets over factor ids (or any dense int range): the
    candidate-exclusion and derived-deduplication scratch sets of the
    packed engine. *)
module Bitset : sig
  type t = Bytes.t

  val create : int -> t
  (** All-zeros bitset able to hold ids [0 .. n - 1]. *)

  val mem : t -> int -> bool
  val add : t -> int -> unit
  val remove : t -> int -> unit
  val clear : t -> unit
end
