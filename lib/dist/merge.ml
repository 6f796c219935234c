(* Merge certified shard tables into one frontier table.

   Trust boundary: a completion record certifies a table by checksum
   (see {!Record}); the merge re-checks that binding, then strictly
   revalidates the table itself. Damage found here — bit rot after
   certification, a half-written table from a dead worker whose record
   survived, a checksum that no longer matches — quarantines the shard
   instead of aborting the merge or (worse) silently merging garbage.
   A salvageable table (strict load fails, but per-entry recovery gets
   back at least [salvage_threshold] of the certified entries) is
   merged from its valid subset: monotone merge makes a subset sound,
   it just weakens the coverage claim, so a salvaged shard voids the
   exhaustive bound below.

   The proven bound (k, max_n) is stamped on the output table only when
   every shard merged strictly clean with an Exhausted outcome — i.e.
   the union of windows provably covers the triangle with no equivalent
   pair and no gaps. Any Found, Missing, Quarantined, or Salvaged shard
   withholds the bound (a Found additionally reports the minimal
   witness pair across shards). *)

let m_quarantined = Obs.Metrics.counter "dist.shards_quarantined"
let m_merged = Obs.Metrics.counter "dist.shards_merged"
let m_salvaged = Obs.Metrics.counter "dist.shards_salvaged"

type shard_status =
  | Merged of Efgame.Persist.report
  | Salvaged of Efgame.Persist.report * int
      (** report, plus the certified entry count it fell short of *)
  | Quarantined of string
  | Missing  (** no completion record yet — merge is partial *)

type t = {
  entries : int;  (** entries in the merged output table *)
  merged : int;
  salvaged : int;
  quarantined : int;
  missing : int;
  bound : (int * int) option;  (** stamped on the output when proven *)
  found : (int * int) option;  (** minimal witness pair across shards *)
  per_shard : (int * shard_status) list;
}

let complete t = t.missing = 0 && t.quarantined = 0

(* Merge a salvaged subset into the main cache entry by entry. *)
let blend ~into cache =
  Efgame.Cache.fold cache ~init:() ~f:(fun () key ~win ~lose ->
      if win >= 0 then Efgame.Cache.store into key ~k:win true;
      if lose < max_int then Efgame.Cache.store into key ~k:lose false)

let quarantine ~dir ~owner id reason =
  Obs.Metrics.incr m_quarantined;
  Obs.Log.warn ~tag:"dist" "merge: shard %d quarantined: %s" id reason;
  (match Manifest.quarantine ~dir ~owner id reason with
  | Ok () -> ()
  | Error msg ->
      Obs.Log.err ~tag:"dist" "cannot quarantine shard %d: %s" id msg);
  Quarantined reason

let merge_shard ~dir ~owner ~salvage_threshold ~into (s : Manifest.shard) =
  let id = s.Manifest.id in
  match Manifest.state ~dir ~ttl:infinity s with
  | Manifest.Quarantined ->
      Quarantined
        (Option.value (Manifest.quarantine_reason dir id) ~default:"(unreadable reason)")
  | Manifest.Pending | Manifest.Leased -> Missing
  | Manifest.Done -> (
      (* A transient store fault (EIO flicker, chaos injection) must not
         quarantine a healthy shard: retry the reads with backoff first,
         and only quarantine what still fails when the store has had
         every chance to answer. *)
      match Rt.Backoff.retry ~attempts:4 ~base_s:0.02 ~max_s:0.25 (fun () ->
                Record.read ~dir id)
      with
      | Error msg -> quarantine ~dir ~owner id ("completion record: " ^ msg)
      | Ok record -> (
          (* the record names which table it certifies (the shard's
             default, or the .spec.tbl an older speculating worker
             wrote); the read already rejected path-like references *)
          let table = Record.table_file ~dir record in
          match
            Rt.Backoff.retry ~attempts:4 ~base_s:0.02 ~max_s:0.25 (fun () ->
                Record.file_fnv table)
          with
          | Error msg -> quarantine ~dir ~owner id ("table unreadable: " ^ msg)
          | Ok fnv when fnv <> record.Record.table_fnv ->
              quarantine ~dir ~owner id
                "table checksum does not match its completion record"
          | Ok _ -> (
              match Efgame.Persist.load into table with
              | Ok report ->
                  Obs.Metrics.incr m_merged;
                  Merged report
              | Error _ -> (
                  (* strict failed though the whole-file checksum held;
                     try per-entry recovery into a side cache *)
                  let side = Efgame.Cache.create () in
                  match Efgame.Persist.load ~salvage:true side table with
                  | Error e ->
                      quarantine ~dir ~owner id
                        (Format.asprintf "beyond salvage: %a"
                           Efgame.Persist.pp_error e)
                  | Ok report ->
                      let certified = max 1 record.Record.entries in
                      let fraction =
                        float_of_int report.Efgame.Persist.entries
                        /. float_of_int certified
                      in
                      if fraction >= salvage_threshold then begin
                        blend ~into side;
                        Obs.Metrics.incr m_salvaged;
                        Obs.Log.warn ~tag:"dist"
                          "merge: shard %d salvaged %d/%d entries" id
                          report.Efgame.Persist.entries record.Record.entries;
                        Salvaged (report, record.Record.entries)
                      end
                      else
                        quarantine ~dir ~owner id
                          (Printf.sprintf
                             "salvage recovered only %d of %d entries"
                             report.Efgame.Persist.entries
                             record.Record.entries)))))

let merge ?(salvage_threshold = 0.5) ?(fsync = true) ~dir ~out () =
  match Manifest.load ~dir with
  | Error msg -> Error msg
  | Ok m ->
      let owner = Lease.default_owner () in
      let into = Efgame.Cache.create () in
      let per_shard =
        Array.to_list m.Manifest.shards
        |> List.map (fun s ->
               ( s.Manifest.id,
                 merge_shard ~dir ~owner ~salvage_threshold ~into s ))
      in
      let count f = List.length (List.filter f per_shard) in
      let merged = count (function _, Merged _ -> true | _ -> false) in
      let salvaged = count (function _, Salvaged _ -> true | _ -> false) in
      let quarantined =
        count (function _, Quarantined _ -> true | _ -> false)
      in
      let missing = count (function _, Missing -> true | _ -> false) in
      (* the minimal witness across shards, in the scan's (q, p) order *)
      let found =
        Array.to_list m.Manifest.shards
        |> List.filter_map (fun s ->
               match Record.read ~dir s.Manifest.id with
               | Ok { Record.outcome = Record.Found (p, q); _ } -> Some (p, q)
               | _ -> None)
        |> List.sort (fun (p, q) (p', q') -> compare (q, p) (q', p'))
        |> function [] -> None | x :: _ -> Some x
      in
      let bound =
        if
          missing = 0 && quarantined = 0 && salvaged = 0 && found = None
          && List.for_all
               (function _, Merged _ -> true | _ -> false)
               per_shard
        then Some (m.Manifest.k, m.Manifest.max_n)
        else None
      in
      let save () = Efgame.Persist.save ~fsync ?bound into out in
      (match Rt.Backoff.retry save with
      | Error e -> Error (Format.asprintf "saving %s: %a" out Efgame.Persist.pp_error e)
      | Ok entries ->
          Ok
            {
              entries;
              merged;
              salvaged;
              quarantined;
              missing;
              bound;
              found;
              per_shard;
            })
