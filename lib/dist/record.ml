(* Shard completion records: the small text file a worker publishes
   after its shard table is written and validated. The record is what
   promotes a shard to Done, and it carries the FNV of the table file
   it certifies, so the merge can detect a table that was replaced or
   damaged after certification (the record and the table are two files;
   the checksum ties them together).

   A shard can have two racing certifiers — a slow original holder and
   the worker that reclaimed its stale lease — so the record write is
   an {e exclusive create}: of N racers exactly one record lands, and
   that record names (in its [table] field) which table file it
   certifies. The loser reads the winner's record back and discards
   its own output — by content hash the two tables are identical anyway
   (deterministic scans), which the loser verifies and logs. [replace]
   is for {!Heal}, which re-certifies a repaired shard under a
   quarantine it is about to clear; nothing else overwrites a record. *)

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
          default [shard-NNNN.tbl] — only records left by older
          speculating workers, naming a [.spec.tbl] *)
  wall_ns : int64 option;  (** wall time the certifying scan took *)
}

let file_fnv path =
  match (Store.active ()).Store.read path with
  | Ok data -> Ok (Manifest.fnv1a64 data)
  | Error e -> Error (path ^ ": " ^ Store.error_message e)

let table_file ~dir r =
  match r.table with
  | None -> Manifest.table_path dir r.shard
  | Some name -> Filename.concat dir name

let to_string r =
  let outcome =
    match r.outcome with
    | Exhausted -> "exhausted"
    | Found (p, q) -> Printf.sprintf "found %d %d" p q
  in
  Printf.sprintf
    "efgame-shard-done 1\nshard %d\nowner %s\noutcome %s\nentries %d\ntable_fnv %Lx\n%s%s"
    r.shard r.owner outcome r.entries r.table_fnv
    (match r.table with
    | Some name -> Printf.sprintf "table %s\n" name
    | None -> "")
    (match r.wall_ns with
    | Some ns -> Printf.sprintf "wall_ns %Ld\n" ns
    | None -> "")

let read ~dir id =
  let path = Manifest.done_path dir id in
  match (Store.active ()).Store.read path with
  | Error e -> Error (path ^ ": " ^ Store.error_message e)
  | Ok data -> (
      let fields =
        String.split_on_char '\n' data
        |> List.filter_map (fun l ->
               match String.index_opt l ' ' with
               | Some i ->
                   Some
                     ( String.sub l 0 i,
                       String.sub l (i + 1) (String.length l - i - 1) )
               | None -> None)
      in
      let get k = List.assoc_opt k fields in
      let int k = Option.bind (get k) int_of_string_opt in
      match
        ( get "efgame-shard-done", int "shard", get "owner", get "outcome",
          int "entries",
          Option.bind (get "table_fnv") (fun h -> Int64.of_string_opt ("0x" ^ h))
        )
      with
      | Some "1", Some shard, Some owner, Some outcome, Some entries, Some fnv
        -> (
          let outcome =
            match String.split_on_char ' ' outcome with
            | [ "exhausted" ] -> Some Exhausted
            | [ "found"; p; q ] -> (
                match (int_of_string_opt p, int_of_string_opt q) with
                | Some p, Some q -> Some (Found (p, q))
                | _ -> None)
            | _ -> None
          in
          (* a table reference must stay inside the scan directory: a
             bare basename, nothing path-like *)
          let table_ok =
            match get "table" with
            | None -> true
            | Some name ->
                name <> "" && name <> ".." && name = Filename.basename name
          in
          match (outcome, table_ok) with
          | Some outcome, true ->
              Ok
                {
                  shard;
                  owner;
                  outcome;
                  entries;
                  table_fnv = fnv;
                  table = get "table";
                  wall_ns = Option.bind (get "wall_ns") Int64.of_string_opt;
                }
          | Some _, false -> Error (path ^ ": suspicious table reference")
          | None, _ -> Error (path ^ ": malformed outcome"))
      | _ -> Error (path ^ ": malformed completion record"))

let write ?(replace = false) ~dir r =
  let st = Store.active () in
  let path = Manifest.done_path dir r.shard in
  if replace then
    match st.Store.put_atomic path (to_string r) with
    | Ok () -> `Written
    | Error e -> `Error (Store.error_message e)
  else
    match st.Store.create_excl path (to_string r) with
    | Ok () -> `Written
    | Error Store.Exists ->
        (* someone certified this shard first — hand the winner's record
           back so the loser can dedup by content hash *)
        `Lost (Result.to_option (read ~dir r.shard))
    | Error e -> `Error (Store.error_message e)
