(** FO[EQ] — first-order logic over position structures with a built-in
    factor-equality relation (Freydenberger & Peterfreund 2019, §5).

    This is the logic the paper contrasts FC with: words are linear orders
    of positions with letter predicates, extended with the 4-ary relation
    [E(x₁, y₁, x₂, y₂)] ⟺ w[x₁..y₁] = w[x₂..y₂] (inclusive position
    intervals; an interval with y < x denotes ε). FO[EQ] has the same
    expressive power as FC; the Feferman-Vaught argument of
    Freydenberger–Peterfreund runs over FO[EQ], whereas this paper's games
    run over FC directly. The module exists to compare the two executable
    semantics on concrete languages.

    {!holds} compiles the formula to slots of an [int array]: the [~env]
    names first, then one slot per binder, so a binder that shadows an
    outer name (or an [~env] name) never overwrites it. [Factor_eq]
    compares the two intervals character by character in place. *)

type t =
  | True
  | False
  | Less of string * string  (** position order x < y *)
  | Eq of string * string
  | Letter of char * string  (** P_a(x) *)
  | Factor_eq of string * string * string * string
      (** E(x₁, y₁, x₂, y₂): w[x₁..y₁] = w[x₂..y₂] *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Exists of string * t
  | Forall of string * t

val conj : t list -> t
val disj : t list -> t
val implies : t -> t -> t
val exists : string list -> t -> t
val forall : string list -> t -> t

val succ : string -> string -> t
(** y = x + 1, defined from < as usual. *)

val is_first : string -> t
val is_last : string -> t

val quantifier_rank : t -> int
val free_vars : t -> string list

type env = (string * int) list
(** Variables denote 0-based positions. *)

val holds : ?env:env -> string -> t -> bool
(** Positions range over [0 .. length w − 1]; over ε, ∃ is false and ∀ is
    true. [~env] positions should lie in that range too; the first binding
    of a name wins. An atom that reads a variable neither quantified nor
    bound by [~env] raises [Invalid_argument] when it is evaluated. *)

val language_member : t -> string -> bool
(** For sentences. *)

(** {1 Builders mirroring the FC ones, for cross-logic testing} *)

val empty_word : t
(** Holds exactly on ε. *)

val ww : t
(** The square language {uu}, as in Example 2.4 but over positions. *)

val cube_free : t
(** No factor uuu with u ≠ ε — the introduction's property. *)

val ends_ab_block : t
(** The language a⁺b⁺ (a simple sanity-check language). *)

val pp : Format.formatter -> t -> unit
