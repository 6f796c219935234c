(* On-disk snapshot of a transposition table's exact verdicts.

   Layout (all integers little-endian):

     bytes 0-3    magic "EFGT"
     bytes 4-7    format version (u32)
     bytes 8-15   entry count (u64)
     bytes 16-23  FNV-1a 64 checksum of everything after byte 24 (u64)
     bytes 24-    payload (v1/v2), or bound prefix + payload (v3):
       bytes 24-27  proven-bound rounds k (i32, -1 = no bound)   [v3]
       bytes 28-35  proven-bound max q  (i64, -1 = no bound)     [v3]
       bytes 36-    payload                                      [v3]

   The v3 bound prefix records an exhaustive-scan fact ("no ≡_k pair
   with q ≤ n") and sits inside the checksummed region, so a bit flip
   in the bound is caught by the strict whole-file check; salvage never
   reports a bound at all (a damaged file may only force a rescan).

   v1 payload, per entry (no framing — a damaged file is all-or-nothing):
     u32   key length
     bytes key (canonical Position encoding, verbatim)
     i32   win  frontier (-1 = none proved)
     i32   lose frontier (-1 = none proved, i.e. max_int)

   v2 payload, per entry (framed so damage is local):
     u32   sync marker (a fixed byte pattern, for resynchronization)
     u32   key length
     bytes key
     i32   win
     i32   lose
     u64   FNV-1a 64 of the entry body (key length through lose)

   Only the win/lose frontiers are written: they are exact verdicts,
   valid for any future search of any budget or width. Budget-provenance
   Unknown records are deliberately dropped — an Unknown is evidence only
   relative to the width/budget pair that produced it, and persisting it
   could suppress a deeper future search. Loading therefore can never
   flip or weaken a verdict; it only pre-proves positions — which is also
   why salvage (recovering the valid subset of a damaged v2 file) is
   always sound. *)

(* Checkpoint cost accounting: total bytes moved and log₂-bucketed
   durations (µs) for saves and loads, plus the fault-tolerance events
   (failed saves, salvage recoveries/drops). *)
let m_saves = Obs.Metrics.counter "persist.saves"
let m_save_bytes = Obs.Metrics.counter "persist.save_bytes"
let m_save_us = Obs.Metrics.histogram "persist.save_us"
let m_checkpoint_ns = Obs.Metrics.timer "persist.checkpoint_ns"
let m_save_failures = Obs.Metrics.counter "persist.save_failures"
let m_loads = Obs.Metrics.counter "persist.loads"
let m_load_bytes = Obs.Metrics.counter "persist.load_bytes"
let m_load_us = Obs.Metrics.histogram "persist.load_us"
let m_salvaged = Obs.Metrics.counter "persist.salvaged_entries"
let m_dropped = Obs.Metrics.counter "persist.dropped_regions"

(* Deterministic fault-injection sites on every I/O step (see Rt.Fault;
   disabled they cost one atomic load each). *)
let fp_write = Rt.Fault.point "persist.write"
let fp_fsync = Rt.Fault.point "persist.fsync"
let fp_rename = Rt.Fault.point "persist.rename"
let fp_read = Rt.Fault.point "persist.read"

type error =
  | Io of string
  | Bad_magic
  | Bad_version of int
  | Truncated
  | Corrupted

let pp_error ppf = function
  | Io msg -> Format.fprintf ppf "i/o error: %s" msg
  | Bad_magic -> Format.fprintf ppf "not an EF-game table file (bad magic)"
  | Bad_version v -> Format.fprintf ppf "unsupported table format version %d" v
  | Truncated -> Format.fprintf ppf "table file is truncated"
  | Corrupted -> Format.fprintf ppf "table file is corrupted (checksum mismatch)"

type report = {
  entries : int;
  dropped : int;
  salvaged : bool;
  bound : (int * int) option;
}

let magic = "EFGT"
let version = 3

(* v3 entries start after the 12-byte bound prefix; v1/v2 right after
   the header *)
let payload_base = function 3 -> 36 | _ -> 24

(* Four bytes unlikely to occur in canonical keys or small integers;
   salvage hunts for this pattern to re-frame after damage. *)
let entry_sync = "\xF2\xEF\x7A\xA5"

(* FNV-1a, 64-bit. Simple, dependency-free, and plenty for detecting
   truncation-with-padding and bit rot; this is an integrity check, not
   an authenticity one. *)
let fnv1a64_sub s pos len =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let fnv1a64 s = fnv1a64_sub s 0 (String.length s)

let encode_lose lose = if lose = max_int then -1l else Int32.of_int lose

(* ------------------------------------------------------------- save *)

let tmp_counter = Atomic.make 0

let save ?(max_depth = max_int) ?(fsync = true) ?bound cache path =
  Obs.Trace.with_span "persist.save"
    ~args:(fun () -> [ ("path", Obs.Trace.S path) ])
  @@ fun () ->
  let t0 = Obs.Clock.now_us () in
  let payload = Buffer.create (1 lsl 16) in
  (* the bound prefix opens the checksummed region *)
  let bound_k, bound_n = match bound with Some (k, n) -> (k, n) | None -> (-1, -1) in
  Buffer.add_int32_le payload (Int32.of_int bound_k);
  Buffer.add_int64_le payload (Int64.of_int bound_n);
  let body = Buffer.create 256 in
  let written =
    Cache.fold cache ~init:0 ~f:(fun n key ~win ~lose ->
        if (win >= 0 || lose < max_int) && Position.key_depth key <= max_depth
        then begin
          Buffer.clear body;
          Buffer.add_int32_le body (Int32.of_int (String.length key));
          Buffer.add_string body key;
          Buffer.add_int32_le body (Int32.of_int win);
          Buffer.add_int32_le body (encode_lose lose);
          Buffer.add_string payload entry_sync;
          Buffer.add_buffer payload body;
          Buffer.add_int64_le payload (fnv1a64 (Buffer.contents body));
          n + 1
        end
        else n)
  in
  let payload = Buffer.contents payload in
  let header = Buffer.create 24 in
  Buffer.add_string header magic;
  Buffer.add_int32_le header (Int32.of_int version);
  Buffer.add_int64_le header (Int64.of_int written);
  Buffer.add_int64_le header (fnv1a64 payload);
  (* write-to-unique-temp + fsync + .bak rotation + rename: a crash at
     any instant leaves the new snapshot, the previous one (possibly as
     .bak), or both — never neither, never a torn primary *)
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Rt.Fault.fire fp_write;
        output_string oc (Buffer.contents header);
        output_string oc payload;
        flush oc;
        if fsync then begin
          Rt.Fault.fire fp_fsync;
          Unix.fsync (Unix.descr_of_out_channel oc)
        end);
    Rt.Fault.fire fp_rename;
    if Sys.file_exists path then begin
      let bak = path ^ ".bak" in
      (try Sys.remove bak with Sys_error _ -> ());
      Sys.rename path bak
    end;
    Sys.rename tmp path
  with
  | () ->
      Obs.Metrics.incr m_saves;
      Obs.Metrics.add m_save_bytes (Buffer.length header + String.length payload);
      let dt_us = Obs.Clock.now_us () -. t0 in
      Obs.Metrics.observe m_save_us (int_of_float dt_us);
      Obs.Metrics.observe_ns m_checkpoint_ns (int_of_float (dt_us *. 1e3));
      if Obs.Events.enabled () then
        Obs.Events.record
          ~detail:
            (Printf.sprintf "%s entries=%d" (Filename.basename path) written)
          "checkpoint";
      Ok written
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Obs.Metrics.incr m_save_failures;
      let msg =
        match e with
        | Sys_error m -> m
        | Unix.Unix_error (err, fn, _) ->
            Printf.sprintf "%s: %s" fn (Unix.error_message err)
        | Rt.Fault.Injected site -> Printf.sprintf "injected fault at %s" site
        | e -> raise e
      in
      Error (Io msg)

(* ------------------------------------------------------------- load *)

(* v1 structural walk: [Some entries] when the declared count tiles the
   payload exactly, [None] otherwise (a negative count — a u64 past
   max_int — tiles nothing). *)
let walk_v1 data count =
  let len = String.length data in
  let b = Bytes.unsafe_of_string data in
  let pos = ref 24 in
  let acc = ref [] in
  match
    if count < 0 then raise Exit;
    for _ = 1 to count do
      if !pos + 4 > len then raise Exit;
      let klen = Int32.to_int (Bytes.get_int32_le b !pos) in
      if klen < 0 || !pos + 4 + klen + 8 > len then raise Exit;
      let key = String.sub data (!pos + 4) klen in
      let win = Int32.to_int (Bytes.get_int32_le b (!pos + 4 + klen)) in
      let lose = Int32.to_int (Bytes.get_int32_le b (!pos + 4 + klen + 4)) in
      acc := (key, win, lose) :: !acc;
      pos := !pos + 4 + klen + 8
    done
  with
  | () -> if !pos = len then Some (List.rev !acc) else None
  | exception Exit -> None

(* v2/v3 walk with resynchronization, starting at [from]. Returns the
   valid entries in file order plus the number of damage regions
   skipped; on an undamaged file [dropped = 0] and the walk consumes
   the payload exactly. *)
let walk_v2 ~from data =
  let len = String.length data in
  let b = Bytes.unsafe_of_string data in
  let sync_at pos =
    pos + 4 <= len
    && String.unsafe_get data pos = String.unsafe_get entry_sync 0
    && String.unsafe_get data (pos + 1) = String.unsafe_get entry_sync 1
    && String.unsafe_get data (pos + 2) = String.unsafe_get entry_sync 2
    && String.unsafe_get data (pos + 3) = String.unsafe_get entry_sync 3
  in
  (* body starts right after the sync marker *)
  let parse_entry body =
    if body + 4 > len then None
    else
      let klen = Int32.to_int (Bytes.get_int32_le b body) in
      if klen < 0 || body + 4 + klen + 8 + 8 > len then None
      else
        let body_len = 4 + klen + 8 in
        let stored = Bytes.get_int64_le b (body + body_len) in
        if fnv1a64_sub data body body_len <> stored then None
        else
          let key = String.sub data (body + 4) klen in
          let win = Int32.to_int (Bytes.get_int32_le b (body + 4 + klen)) in
          let lose = Int32.to_int (Bytes.get_int32_le b (body + 4 + klen + 4)) in
          Some ((key, win, lose), body + body_len + 8)
  in
  let find_sync from =
    let i = ref from in
    while !i < len && not (sync_at !i) do
      incr i
    done;
    min !i len
  in
  let pos = ref from in
  let acc = ref [] in
  let dropped = ref 0 in
  while !pos < len do
    match if sync_at !pos then parse_entry (!pos + 4) else None with
    | Some (entry, next) ->
        acc := entry :: !acc;
        pos := next
    | None ->
        (* one damage region: hunt for the next frame *)
        incr dropped;
        pos := find_sync (!pos + 1)
  done;
  (List.rev !acc, !dropped)

let store_entries cache entries =
  List.iter
    (fun (key, win, lose) ->
      if win >= 0 then Cache.store cache key ~k:win true;
      if lose >= 0 then Cache.store cache key ~k:lose false)
    entries

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        Rt.Fault.fire fp_read;
        In_channel.input_all ic)
  with
  | data -> Ok data
  | exception Sys_error msg -> Error (Io msg)
  | exception Rt.Fault.Injected site ->
      Error (Io (Printf.sprintf "injected fault at %s" site))

(* Parse and validate [data]; never touches a cache. Returns the header
   facts plus the recoverable entries, so [load] and [inspect] share one
   reader. *)
let analyze data =
  let len = String.length data in
  if len >= 4 && String.sub data 0 4 <> magic then Error Bad_magic
  else if len < 24 then Error Truncated
  else
    let b = Bytes.unsafe_of_string data in
    let ver = Int32.to_int (Bytes.get_int32_le b 4) in
    if ver < 1 || ver > version then Error (Bad_version ver)
    else if len < payload_base ver then Error Truncated
    else
      let declared = Int64.to_int (Bytes.get_int64_le b 8) in
      let sum = Bytes.get_int64_le b 16 in
      let checksum_ok = fnv1a64_sub data 24 (len - 24) = sum in
      let bound =
        if ver < 3 then None
        else
          let k = Int32.to_int (Bytes.get_int32_le b 24) in
          let n = Int64.to_int (Bytes.get_int64_le b 28) in
          if k >= 0 && n >= 0 then Some (k, n) else None
      in
      if ver = 1 then
        let entries =
          if checksum_ok then walk_v1 data declared else None
        in
        Ok (ver, declared, checksum_ok, entries, 0, bound)
      else
        let entries, dropped = walk_v2 ~from:(payload_base ver) data in
        Ok (ver, declared, checksum_ok, Some entries, dropped, bound)

let clean ~declared ~checksum_ok ~dropped entries =
  checksum_ok && dropped = 0 && List.length entries = declared

let load ?(salvage = false) cache path =
  Obs.Trace.with_span "persist.load"
    ~args:(fun () -> [ ("path", Obs.Trace.S path) ])
  @@ fun () ->
  let t0 = Obs.Clock.now_us () in
  match read_file path with
  | Error _ as e -> e
  | Ok data -> (
      let finish report =
        Obs.Metrics.incr m_loads;
        Obs.Metrics.add m_load_bytes (String.length data);
        Obs.Metrics.observe m_load_us (int_of_float (Obs.Clock.now_us () -. t0));
        if report.salvaged then begin
          Obs.Metrics.add m_salvaged report.entries;
          Obs.Metrics.add m_dropped report.dropped
        end;
        Ok report
      in
      match analyze data with
      | Error _ as e -> e
      | Ok (1, declared, checksum_ok, entries, _, _) -> (
          (* v1: all-or-nothing, salvage or not — there is no per-entry
             checksum to make partial recovery sound *)
          if not checksum_ok then Error Corrupted
          else
            match entries with
            | None -> Error Truncated
            | Some entries ->
                store_entries cache entries;
                finish
                  { entries = declared; dropped = 0; salvaged = false;
                    bound = None })
      | Ok (_, declared, checksum_ok, Some entries, dropped, bound) ->
          if clean ~declared ~checksum_ok ~dropped entries then begin
            store_entries cache entries;
            finish { entries = declared; dropped = 0; salvaged = false; bound }
          end
          else if not salvage then
            (* strict: prefer the more precise structural verdict when
               the frame walk saw damage, else blame the checksum *)
            Error
              (if dropped > 0 || List.length entries <> declared then
                 if checksum_ok then Truncated else Corrupted
               else Corrupted)
          else begin
            store_entries cache entries;
            (* a salvaged bound is no bound: the header is only evidence
               when the whole file validated *)
            finish
              { entries = List.length entries; dropped; salvaged = true;
                bound = None }
          end
      | Ok (_, _, _, None, _, _) -> assert false (* v2 walk always returns *))

let recover ?salvage cache path =
  match load ?salvage cache path with
  | Ok report -> Ok (path, report)
  | Error primary_err -> (
      let bak = path ^ ".bak" in
      if not (Sys.file_exists bak) then Error primary_err
      else
        match load ?salvage cache bak with
        | Ok report -> Ok (bak, report)
        | Error _ -> Error primary_err)

(* ---------------------------------------------------------- inspect *)

type info = {
  path : string;
  version : int;
  bytes : int;
  declared_entries : int;
  checksum_ok : bool;
  valid_entries : int;
  damaged : int;
  bound : (int * int) option;
}

let inspect path =
  match read_file path with
  | Error _ as e -> e
  | Ok data -> (
      match analyze data with
      | Error _ as e -> e
      | Ok (version, declared, checksum_ok, entries, damaged, bound) ->
          let valid =
            match entries with Some es -> List.length es | None -> 0
          in
          Ok
            {
              path;
              version;
              bytes = String.length data;
              declared_entries = declared;
              checksum_ok;
              valid_entries = valid;
              damaged;
              bound;
            })

let pp_info ppf i =
  Format.fprintf ppf
    "%s: format v%d, %d bytes, %d declared / %d valid entries, checksum %s%s%s"
    i.path i.version i.bytes i.declared_entries i.valid_entries
    (if i.checksum_ok then "ok" else "MISMATCH")
    (if i.damaged > 0 then Format.sprintf ", %d damaged region(s)" i.damaged
     else "")
    (match i.bound with
    | Some (k, n) -> Format.sprintf ", proven bound: no ≡_%d pair with q ≤ %d" k n
    | None -> "")
