(* The shard manifest: one immutable, checksummed file describing how a
   frontier scan was cut into triangle windows. Everything *mutable*
   about a scan — who holds which shard, which shards are finished or
   quarantined — is deliberately NOT in the manifest: per-shard state is
   derived from the presence of sibling files (lease / done / quarantine
   records), so there is no coordinator and no file that two workers
   ever need to update concurrently.

   Format (plain text, line-oriented, dependency-free):

     efgame-shard-manifest 2
     k 3
     max_n 96
     total 4656
     model power:2
     shard 0 0 582
     shard 1 582 1164
     ...
     checksum <fnv1a64 of every preceding byte, hex>

   Version 2 added the [model] line (the cost model the windows were
   tiled by — see {!Cost}); version 1 manifests, which are always
   equal-pair cuts, still load with [model = Uniform]. The checksum
   makes a torn or hand-edited manifest detectable; since the file is
   written once (tmp + rename) and never rewritten, that is the only
   integrity risk. *)

type shard = { id : int; lo : int; hi : int }

type t = {
  k : int;
  max_n : int;
  total : int;
  model : Cost.model;
  shards : shard array;
}

(* Per-shard lifecycle, derived from the filesystem (see {!state}). *)
type state = Pending | Leased | Done | Quarantined

let version = 2
let file_name = "manifest"

let path dir = Filename.concat dir file_name

let shard_base dir id = Filename.concat dir (Printf.sprintf "shard-%04d" id)
let table_path dir id = shard_base dir id ^ ".tbl"
let lease_path dir id = shard_base dir id ^ ".lease"
let done_path dir id = shard_base dir id ^ ".done"
let retries_path dir id = shard_base dir id ^ ".retries"
let quarantine_path dir id = shard_base dir id ^ ".quarantine"

(* Speculative re-execution (see {!Worker}) runs under a secondary
   lease and writes its table to a distinct file, so a speculator and
   the primary holder never race on the same bytes — only on the
   completion record, whose exclusive create is the single winner
   point. *)
let spec_lease_path dir id = shard_base dir id ^ ".spec.lease"
let spec_table_path dir id = shard_base dir id ^ ".spec.tbl"
let spec_table_name id = Printf.sprintf "shard-%04d.spec.tbl" id

let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let create ?(model = Cost.Uniform) ~k ~max_n ~shards () =
  if k < 0 then invalid_arg "Manifest.create: negative k";
  if max_n < 1 then invalid_arg "Manifest.create: max_n < 1";
  if shards < 1 then invalid_arg "Manifest.create: shards < 1";
  let total = max_n * (max_n + 1) / 2 in
  let windows = Cost.tile ~model ~max_n ~shards in
  let arr = Array.mapi (fun i (lo, hi) -> { id = i; lo; hi }) windows in
  { k; max_n; total; model; shards = arr }

let body m =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "efgame-shard-manifest %d\n" version);
  Buffer.add_string b (Printf.sprintf "k %d\n" m.k);
  Buffer.add_string b (Printf.sprintf "max_n %d\n" m.max_n);
  Buffer.add_string b (Printf.sprintf "total %d\n" m.total);
  Buffer.add_string b (Printf.sprintf "model %s\n" (Cost.to_string m.model));
  Array.iter
    (fun s -> Buffer.add_string b (Printf.sprintf "shard %d %d %d\n" s.id s.lo s.hi))
    m.shards;
  Buffer.contents b

let save m ~dir =
  let st = Store.active () in
  let body = body m in
  let data = Printf.sprintf "%schecksum %Lx\n" body (fnv1a64 body) in
  let final = path dir in
  if st.Store.exists final then Error (final ^ ": manifest already exists")
  else
    match st.Store.put_atomic final data with
    | Ok () -> Ok ()
    | Error e -> Error (Store.error_message e)

let load ~dir =
  let file = path dir in
  match (Store.active ()).Store.read file with
  | Error e -> Error (file ^ ": " ^ Store.error_message e)
  | Ok data -> (
      (* split off the trailing checksum line and verify it covers the
         exact bytes it follows *)
      let check_prefix = "checksum " in
      match String.rindex_opt (String.sub data 0 (max 0 (String.length data - 1))) '\n' with
      | None -> Error (file ^ ": not a shard manifest")
      | Some nl -> (
          let body = String.sub data 0 (nl + 1) in
          let last = String.sub data (nl + 1) (String.length data - nl - 1) in
          let ok =
            String.length last > String.length check_prefix
            && String.sub last 0 (String.length check_prefix) = check_prefix
            &&
            let hex =
              String.trim
                (String.sub last (String.length check_prefix)
                   (String.length last - String.length check_prefix))
            in
            match Int64.of_string_opt ("0x" ^ hex) with
            | Some sum -> sum = fnv1a64 body
            | None -> false
          in
          if not ok then Error (file ^ ": manifest checksum mismatch")
          else
            let lines =
              String.split_on_char '\n' body
              |> List.filter (fun l -> String.trim l <> "")
            in
            let shards = ref [] in
            let k = ref (-1) and max_n = ref (-1) and total = ref (-1) in
            let ver = ref (-1) in
            let model = ref Cost.Uniform in
            let bad = ref None in
            let set_int r v =
              match int_of_string_opt v with
              | Some n -> r := n
              | None -> bad := Some (Printf.sprintf "not an integer: %S" v)
            in
            List.iteri
              (fun i line ->
                match (i, String.split_on_char ' ' line) with
                | 0, [ "efgame-shard-manifest"; v ] -> (
                    (* v1 manifests (equal-pair cuts, no model line)
                       still load; anything newer than us does not *)
                    match int_of_string_opt v with
                    | Some n when n >= 1 && n <= version -> ver := n
                    | _ ->
                        bad :=
                          Some
                            (Printf.sprintf "unsupported manifest version %s" v))
                | _, [ "k"; v ] -> set_int k v
                | _, [ "max_n"; v ] -> set_int max_n v
                | _, [ "total"; v ] -> set_int total v
                | _, [ "model"; v ] -> (
                    if !ver < 2 then
                      bad := Some "model line in a version 1 manifest"
                    else
                      match Cost.of_string v with
                      | Ok m -> model := m
                      | Error msg -> bad := Some msg)
                | _, [ "shard"; id; lo; hi ] -> (
                    match
                      (int_of_string_opt id, int_of_string_opt lo,
                       int_of_string_opt hi)
                    with
                    | Some id, Some lo, Some hi ->
                        shards := { id; lo; hi } :: !shards
                    | _ -> bad := Some (Printf.sprintf "bad shard line %S" line))
                | _ -> bad := Some (Printf.sprintf "unrecognized line %S" line))
              lines;
            match !bad with
            | Some msg -> Error (file ^ ": " ^ msg)
            | None ->
                let shards = Array.of_list (List.rev !shards) in
                if
                  !k < 0 || !max_n < 1
                  || !total <> !max_n * (!max_n + 1) / 2
                  || Array.length shards = 0
                  || not
                       (Array.for_all
                          (fun s ->
                            s.id >= 0 && 0 <= s.lo && s.lo <= s.hi
                            && s.hi <= !total)
                          shards)
                then Error (file ^ ": inconsistent manifest fields")
                else
                  Ok
                    {
                      k = !k;
                      max_n = !max_n;
                      total = !total;
                      model = !model;
                      shards;
                    }))

(* Lease freshness: heartbeats bump the lease file's mtime, so a lease
   older than the TTL belongs to a worker that died or wedged. Ages are
   store-observed — coarse mtimes and this process's clock skew are in
   the number, which is why staleness cuts at TTL plus the store's
   margin, not at the bare TTL. *)
let lease_age dir id =
  let st = Store.active () in
  match st.Store.mtime (lease_path dir id) with
  | Ok m -> Some (st.Store.now () -. m)
  | Error _ -> None

let state ~dir ~ttl s =
  let st = Store.active () in
  if st.Store.exists (quarantine_path dir s.id) then Quarantined
  else if st.Store.exists (done_path dir s.id) then Done
  else
    match lease_age dir s.id with
    | Some age when age <= ttl +. Store.stale_margin st -> Leased
    | Some _ | None -> Pending

type counts = {
  pending : int;
  leased : int;
  stale : int;  (** leased past the TTL — reclaimable, counted as pending work *)
  done_ : int;
  quarantined : int;
}

let counts ~dir ~ttl m =
  Array.fold_left
    (fun c s ->
      match state ~dir ~ttl s with
      | Quarantined -> { c with quarantined = c.quarantined + 1 }
      | Done -> { c with done_ = c.done_ + 1 }
      | Leased -> { c with leased = c.leased + 1 }
      | Pending ->
          if lease_age dir s.id <> None then
            { c with pending = c.pending + 1; stale = c.stale + 1 }
          else { c with pending = c.pending + 1 })
    { pending = 0; leased = 0; stale = 0; done_ = 0; quarantined = 0 }
    m.shards

let retries dir id =
  match (Store.active ()).Store.read (retries_path dir id) with
  | Ok data -> (
      match String.index_opt data '\n' with
      | Some i ->
          Option.value
            (int_of_string_opt (String.trim (String.sub data 0 i)))
            ~default:0
      | None -> Option.value (int_of_string_opt (String.trim data)) ~default:0)
  | Error _ -> 0

(* Last-writer-wins is fine here: the counter only gates how long a
   flaky shard keeps being retried, and only the lease holder bumps it. *)
let bump_retries dir id =
  let n = retries dir id + 1 in
  ignore
    ((Store.active ()).Store.put_atomic ~fsync:false (retries_path dir id)
       (string_of_int n ^ "\n"));
  n

let quarantine ~dir ~owner id reason =
  match
    (Store.active ()).Store.put_atomic (quarantine_path dir id)
      (Printf.sprintf "shard %d\nowner %s\nreason %s\n" id owner reason)
  with
  | Ok () -> Ok ()
  | Error e -> Error (Store.error_message e)

let quarantine_reason dir id =
  match (Store.active ()).Store.read (quarantine_path dir id) with
  | Ok data ->
      List.find_map
        (fun l ->
          match String.index_opt l ' ' with
          | Some i when String.sub l 0 i = "reason" ->
              Some (String.sub l (i + 1) (String.length l - i - 1))
          | _ -> None)
        (String.split_on_char '\n' data)
  | Error _ -> None
