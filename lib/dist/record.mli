(** Shard completion records: the small file whose atomic {e exclusive}
    create promotes a shard to Done, carrying the FNV-1a64 of the table
    file it certifies — the record and the table are separate files,
    and the checksum is what ties a certification to exactly one table
    state (a table replaced or damaged after certification is detected
    at merge time).

    A shard can have two racing certifiers: a slow original holder and
    the worker that reclaimed its stale lease (see {!Worker}). The
    exclusive create is the winner point: of N racers exactly one
    record lands, naming the table file it certifies. Losers dedup by
    content hash — deterministic scans make the duplicate
    byte-identical, and the monotone merge makes even a divergent
    duplicate harmless to discard (DESIGN.md decision 10). *)

type outcome =
  | Exhausted  (** every pair in the window refuted *)
  | Found of int * int  (** minimal equivalent pair within the window *)

type t = {
  shard : int;
  owner : string;
  outcome : outcome;
  entries : int;  (** entries in the certified table *)
  table_fnv : int64;  (** FNV-1a64 of the table file's bytes *)
  table : string option;
      (** basename of the certified table when it is not the shard's
          default [shard-NNNN.tbl]; validated on read to be a bare
          basename. Current workers always write [None]; records left
          by older speculating workers name a [shard-NNNN.spec.tbl] and
          still read and merge. *)
  wall_ns : int64 option;
      (** wall time of the certifying scan, when recorded *)
}

val file_fnv : string -> (int64, string) result

val table_file : dir:string -> t -> string
(** The table file this record certifies, resolved under [dir]. *)

val write :
  ?replace:bool ->
  dir:string ->
  t ->
  [ `Written | `Lost of t option | `Error of string ]
(** Exclusive create: of N racing certifiers exactly one [`Written]
    lands. [`Lost] carries the winning record when it could be read
    back — first record wins, the caller discards its own output.
    [replace:true] (default false) overwrites unconditionally:
    {!Heal} re-certifying a repaired shard; nothing else may use it. *)

val read : dir:string -> int -> (t, string) result
