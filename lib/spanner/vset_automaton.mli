(** Variable-set automata (vset-automata) — the automaton representation of
    regular spanners in the document-spanner framework (Fagin et al.).

    A vset-automaton is an NFA whose transitions are either letter reads or
    variable operations ⊢x (open) and x⊣ (close); an accepting run over a
    document assigns each variable the span between its open and close
    operations. Regex formulas compile into vset-automata (Thompson-style,
    {!Regex_formula.compile}); this module is the only spanner evaluator. *)

type label =
  | Read of char
  | Any  (** reads any one letter *)
  | Open of string  (** ⊢x *)
  | Close of string  (** x⊣ *)

type t

val make :
  states:int -> start:int -> accepting:int list ->
  transitions:(int * label * int) list -> t
(** Raises [Invalid_argument] on out-of-range states. The variable set is
    inferred from the labels; [Open ""] and [Close ""] are ε-moves. The
    ε- and operation-moves are folded into the letter moves here, once, so
    every {!eval} reuses the compiled form. *)

val states : t -> int
val start : t -> int
val accepting : t -> int list
val vars : t -> string list
val transitions : t -> (int * label * int) list

val anywhere : t -> t
(** Σ*·A·Σ*: a fresh start and a fresh accepting state, each with an
    [Any] self-loop, around [A]. The result matches every factor of a
    document that [A] matches, whatever the document's alphabet. *)

val eval : t -> string -> Relation.t
(** All accepting runs over the whole document, as a span relation over the
    automaton's variables. A run yields a row only if it opens and then
    closes every variable exactly once; other runs (a variable never
    opened, opened and never closed, or opened twice) are dropped, so
    non-functional automata simply lose those runs — check
    {!is_functional} to rule them out. A backward pass marks the
    co-reachable (position, state) nodes; enumeration then visits only
    those, once each, so ambiguous automata stay polynomial. Each visited
    node counts in the [spanner.run_nodes] metric. *)

val is_functional : t -> bool
(** Every accepting run opens and closes every variable exactly once
    (decided by reachability over variable-status abstractions). *)
