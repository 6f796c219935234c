(** Minimal streaming JSON writer.

    One writer backs every JSON emitter in the repo (scan reports, bench
    reports, metrics snapshots, trace files), so string escaping and
    number formatting live in exactly one place. The writer is a thin
    state machine over a {!Buffer.t}: it tracks only whether a comma is
    due before the next value, so well-formedness is the caller's
    responsibility at the level of "one value per [field]" — the
    combinator shape ([obj]/[arr] take a closure) makes malformed
    nesting hard to express. Not thread-safe; build per-domain fragments
    separately and stitch them (see {!Obs.Trace}). *)

type t

val create : ?initial_size:int -> unit -> t
val contents : t -> string

(** [to_file path f] writes the document produced by [f] to [path]
    atomically enough for our purposes (single [open_out]/[close_out]). *)
val to_file : string -> (t -> unit) -> unit

(** [writable path] — [Ok ()] when [path] can be created or overwritten
    (its directory exists and is writable, and [path] is not a
    directory), else [Error reason]. The CLIs check every output path
    with it before doing any work, so a mistyped path is a usage error
    up front rather than an exception after the run. *)
val writable : string -> (unit, string) result

(** JSON string escaping: quotes, backslash, and all control characters
    (as [\uXXXX], with the usual short forms for [\n] [\r] [\t]). *)
val escaped : string -> string

(** {1 Values} — usable at the top level or inside [arr]/[field]. *)

val obj : t -> (t -> unit) -> unit
val arr : t -> (t -> unit) -> unit
val string : t -> string -> unit
val int : t -> int -> unit

(** [float ?prec w v] prints [v] with [prec] decimal places (default 6).
    Non-finite floats become [null] — JSON has no representation. *)
val float : ?prec:int -> t -> float -> unit

val bool : t -> bool -> unit
val null : t -> unit

(** Verbatim splice of an already-serialized JSON value. *)
val raw : t -> string -> unit

(** {1 Object members} — only valid inside [obj]. *)

val field : t -> string -> (t -> unit) -> unit
val field_string : t -> string -> string -> unit
val field_int : t -> string -> int -> unit
val field_float : ?prec:int -> t -> string -> float -> unit
val field_bool : t -> string -> bool -> unit
val field_null : t -> string -> unit
