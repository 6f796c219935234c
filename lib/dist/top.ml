(* The fleet aggregator behind [efgame_cli shard top]: fold every
   readable worker heartbeat plus the manifest's derived shard states
   into one live view — fleet throughput, per-worker share, ETA from
   the (q+1)^2 cost of the windows still outstanding.

   [aggregate] is a pure function of its inputs (clock included), so
   the qcheck property "the fleet row is the sum of the worker rows"
   can drive it with arbitrary snapshots; all the I/O and tolerance
   lives in {!Heartbeat.list} and the caller. *)

type worker_row = {
  hb : Heartbeat.view;
  age : float;
      (** seconds since the snapshot appeared, judged against the
          store-observed file mtime when available (the publisher's own
          clock may be skewed), else against its self-reported [v_now] *)
  fresh : bool;
  skew_s : float option;
      (** publisher clock minus store mtime — how far this worker's
          clock disagrees with the store's, when the mtime is known *)
  skewed : bool;  (** |skew_s| beyond the margin: flagged, not stale *)
  rate : float;  (** pairs/s over the worker's uptime *)
  cost_rate : float;  (** (q+1)^2 cost units/s over the worker's uptime *)
  share : float;  (** of the fleet's pairs; 0 when the fleet is at 0 *)
}

type t = {
  now : float;
  workers : worker_row list;  (** sorted by owner *)
  fleet_pairs : int;
  fleet_completed : int;
  fleet_claimed : int;
  fleet_reclaimed : int;
  fleet_abandoned : int;
  fleet_requeued : int;
  fleet_quarantined : int;
  fleet_cache_hits : int;
  fleet_cache_misses : int;
  fleet_faults : int;
  fleet_retries : int;
  rate : float;  (** Σ rate over fresh workers *)
  shards_pending : int;
  shards_leased : int;
  shards_done : int;
  shards_quarantined : int;
  total_pairs : int;  (** Σ window sizes over every shard *)
  done_pairs : int;  (** Σ window sizes over Done shards *)
  remaining_pairs : int;  (** Σ window sizes over Pending/Leased shards *)
  total_cost : float;  (** Σ window costs over every shard *)
  done_cost : float;  (** Σ window costs over Done shards *)
  remaining_cost : float;  (** Σ over Pending/Leased shards *)
  eta_s : float option;  (** remaining cost / fleet cost rate; None at 0 *)
}

let default_stale_after = 10.
let default_skew_margin = 2.0

let aggregate ~now ?(stale_after = default_stale_after)
    ?(skew_margin = default_skew_margin) ?(states = []) observed =
  let observed =
    List.sort
      (fun a b ->
        compare a.Heartbeat.ob_view.Heartbeat.v_owner
          b.Heartbeat.ob_view.Heartbeat.v_owner)
      observed
  in
  let views = List.map (fun o -> o.Heartbeat.ob_view) observed in
  let sum f = List.fold_left (fun acc v -> acc + f v) 0 views in
  let fleet_pairs = sum (fun v -> v.Heartbeat.v_pairs) in
  let workers =
    List.map
      (fun (o : Heartbeat.observed) ->
        let v = o.Heartbeat.ob_view in
        (* Staleness against the store-observed mtime when we have one:
           a worker whose clock runs ahead or behind is then flagged as
           skewed instead of being mis-classified fresh or stale. *)
        let age =
          match o.Heartbeat.ob_mtime with
          | Some m -> Float.max 0. (now -. m)
          | None -> Float.max 0. (now -. v.Heartbeat.v_now)
        in
        let fresh = age <= stale_after in
        let skew_s =
          Option.map (fun m -> v.Heartbeat.v_now -. m) o.Heartbeat.ob_mtime
        in
        let skewed =
          match skew_s with
          | Some s -> Float.abs s > skew_margin
          | None -> false
        in
        let up = Heartbeat.uptime v in
        let cost_rate =
          if up <= 0. then 0.
          else float_of_int v.Heartbeat.v_cost_done /. up
        in
        {
          hb = v;
          age;
          fresh;
          skew_s;
          skewed;
          rate = Heartbeat.pairs_per_s v;
          cost_rate;
          share =
            (if fleet_pairs = 0 then 0.
             else
               float_of_int v.Heartbeat.v_pairs /. float_of_int fleet_pairs);
        })
      observed
  in
  let rate =
    List.fold_left
      (fun acc w -> if w.fresh then acc +. w.rate else acc)
      0. workers
  in
  let count_state want =
    List.length (List.filter (fun (_, st) -> st = want) states)
  in
  let pairs_in want =
    List.fold_left
      (fun acc ((s : Manifest.shard), st) ->
        if st = want then acc + (s.hi - s.lo) else acc)
      0 states
  in
  let total_pairs =
    List.fold_left (fun acc ((s : Manifest.shard), _) -> acc + (s.hi - s.lo)) 0 states
  in
  let remaining_pairs = pairs_in Manifest.Pending + pairs_in Manifest.Leased in
  let cost_in pred =
    List.fold_left
      (fun acc ((s : Manifest.shard), st) ->
        if pred st then acc +. Cost.window_cost s.lo s.hi else acc)
      0. states
  in
  let total_cost = cost_in (fun _ -> true) in
  let done_cost = cost_in (fun st -> st = Manifest.Done) in
  let remaining_cost =
    cost_in (fun st -> st = Manifest.Pending || st = Manifest.Leased)
  in
  let cost_rate_sum =
    List.fold_left
      (fun acc w -> if w.fresh then acc +. w.cost_rate else acc)
      0. workers
  in
  {
    now;
    workers;
    fleet_pairs;
    fleet_completed = sum (fun v -> v.Heartbeat.v_completed);
    fleet_claimed = sum (fun v -> v.Heartbeat.v_claimed);
    fleet_reclaimed = sum (fun v -> v.Heartbeat.v_reclaimed);
    fleet_abandoned = sum (fun v -> v.Heartbeat.v_abandoned);
    fleet_requeued = sum (fun v -> v.Heartbeat.v_requeued);
    fleet_quarantined = sum (fun v -> v.Heartbeat.v_quarantined);
    fleet_cache_hits = sum (fun v -> v.Heartbeat.v_cache_hits);
    fleet_cache_misses = sum (fun v -> v.Heartbeat.v_cache_misses);
    fleet_faults = sum (fun v -> v.Heartbeat.v_faults);
    fleet_retries = sum (fun v -> v.Heartbeat.v_retries);
    rate;
    shards_pending = count_state Manifest.Pending;
    shards_leased = count_state Manifest.Leased;
    shards_done = count_state Manifest.Done;
    shards_quarantined = count_state Manifest.Quarantined;
    total_pairs;
    done_pairs = pairs_in Manifest.Done;
    remaining_pairs;
    total_cost;
    done_cost;
    remaining_cost;
    eta_s =
      (if remaining_cost > 0. && cost_rate_sum > 0. then
         Some (remaining_cost /. cost_rate_sum)
       else None);
  }

(* ----------------------------------------------------------- output *)

let write_json ?(warnings = []) t w =
  let module J = Obs.Jsonw in
  J.obj w (fun w ->
      (* /2 added cost totals and an ETA basis; /3 removed the /2
         fields that flagged slow shard holders; /4 removed the basis
         (the ETA is always cost-based). Every /1 field is unchanged *)
      J.field_string w "schema" "efgame-top/4";
      J.field_float ~prec:6 w "now_s" t.now;
      J.field w "fleet" (fun w ->
          J.obj w (fun w ->
              J.field_int w "workers" (List.length t.workers);
              J.field_int w "fresh_workers"
                (List.length (List.filter (fun r -> r.fresh) t.workers));
              J.field_int w "pairs" t.fleet_pairs;
              J.field_float ~prec:2 w "pairs_per_s" t.rate;
              (match t.eta_s with
              | Some eta -> J.field_float ~prec:1 w "eta_s" eta
              | None -> J.field_null w "eta_s");
              J.field_int w "completed" t.fleet_completed;
              J.field_int w "claimed" t.fleet_claimed;
              J.field_int w "reclaimed" t.fleet_reclaimed;
              J.field_int w "abandoned" t.fleet_abandoned;
              J.field_int w "requeued" t.fleet_requeued;
              J.field_int w "quarantined" t.fleet_quarantined;
              J.field_int w "cache_hits" t.fleet_cache_hits;
              J.field_int w "cache_misses" t.fleet_cache_misses;
              J.field_int w "faults" t.fleet_faults;
              J.field_int w "retries" t.fleet_retries));
      J.field w "shards" (fun w ->
          J.obj w (fun w ->
              J.field_int w "pending" t.shards_pending;
              J.field_int w "leased" t.shards_leased;
              J.field_int w "done" t.shards_done;
              J.field_int w "quarantined" t.shards_quarantined;
              J.field_int w "total_pairs" t.total_pairs;
              J.field_int w "done_pairs" t.done_pairs;
              J.field_int w "remaining_pairs" t.remaining_pairs;
              J.field_float ~prec:1 w "total_cost" t.total_cost;
              J.field_float ~prec:1 w "done_cost" t.done_cost;
              J.field_float ~prec:1 w "remaining_cost" t.remaining_cost));
      J.field w "workers" (fun w ->
          J.arr w (fun w ->
              List.iter
                (fun r ->
                  let v = r.hb in
                  J.obj w (fun w ->
                      J.field_string w "owner" v.Heartbeat.v_owner;
                      J.field_string w "host" v.Heartbeat.v_host;
                      J.field_int w "pid" v.Heartbeat.v_pid;
                      J.field_float ~prec:2 w "age_s" r.age;
                      J.field_bool w "fresh" r.fresh;
                      (match r.skew_s with
                      | Some s -> J.field_float ~prec:2 w "clock_skew_s" s
                      | None -> J.field_null w "clock_skew_s");
                      J.field_bool w "clock_skewed" r.skewed;
                      J.field_int w "pairs" v.Heartbeat.v_pairs;
                      J.field_float ~prec:2 w "pairs_per_s" r.rate;
                      J.field_float ~prec:2 w "cost_per_s" r.cost_rate;
                      J.field_float ~prec:4 w "share" r.share;
                      J.field_int w "completed" v.Heartbeat.v_completed;
                      J.field_int w "requeued" v.Heartbeat.v_requeued;
                      J.field_int w "quarantined" v.Heartbeat.v_quarantined;
                      J.field_int w "faults" v.Heartbeat.v_faults;
                      J.field_float ~prec:4 w "cache_hit_rate"
                        (Heartbeat.cache_hit_rate v);
                      (match v.Heartbeat.v_current_shard with
                      | Some id -> J.field_int w "current_shard" id
                      | None -> J.field_null w "current_shard");
                      match Heartbeat.checkpoint_age v with
                      | Some age ->
                          J.field_float ~prec:1 w "last_checkpoint_age_s"
                            (age +. r.age)
                      | None -> J.field_null w "last_checkpoint_age_s"))
                t.workers));
      J.field w "warnings" (fun w ->
          J.arr w (fun w -> List.iter (J.string w) warnings)))

let pp_eta ppf = function
  | None -> Format.fprintf ppf "-"
  | Some s when s >= 3600. -> Format.fprintf ppf "%.1fh" (s /. 3600.)
  | Some s when s >= 60. -> Format.fprintf ppf "%.1fm" (s /. 60.)
  | Some s -> Format.fprintf ppf "%.0fs" s

let render ?(warnings = []) t =
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  let fresh = List.length (List.filter (fun r -> r.fresh) t.workers) in
  Format.fprintf ppf
    "fleet: %d worker(s) (%d fresh)  %d pairs  %.1f pairs/s  eta %a@."
    (List.length t.workers) fresh t.fleet_pairs t.rate pp_eta t.eta_s;
  Format.fprintf ppf
    "shards: %d pending, %d leased, %d done, %d quarantined  (%d / %d pairs done)@."
    t.shards_pending t.shards_leased t.shards_done t.shards_quarantined
    t.done_pairs t.total_pairs;
  if t.fleet_reclaimed + t.fleet_requeued + t.fleet_abandoned > 0 then
    Format.fprintf ppf
      "events: %d reclaimed, %d requeued, %d abandoned, %d faults@."
      t.fleet_reclaimed t.fleet_requeued t.fleet_abandoned t.fleet_faults;
  Format.fprintf ppf
    "@[<v>%-34s %6s %9s %6s %6s %7s %6s %8s@]@." "owner" "age" "pairs"
    "rate" "share" "hit%" "shard" "ckpt-age";
  List.iter
    (fun r ->
      let v = r.hb in
      Format.fprintf ppf "%-34s %5.1fs %9d %6.1f %5.1f%% %6.1f%% %6s %8s%s@."
        v.Heartbeat.v_owner r.age v.Heartbeat.v_pairs r.rate (r.share *. 100.)
        (Heartbeat.cache_hit_rate v *. 100.)
        (match v.Heartbeat.v_current_shard with
        | Some id -> string_of_int id
        | None -> "-")
        (match Heartbeat.checkpoint_age v with
        | Some age -> Printf.sprintf "%.0fs" (age +. r.age)
        | None -> "-")
        (match (r.fresh, r.skewed, r.skew_s) with
        | false, _, _ -> "  [stale]"
        | true, true, Some s -> Printf.sprintf "  [skew %+.1fs]" s
        | true, _, _ -> ""))
    t.workers;
  List.iter (fun wmsg -> Format.fprintf ppf "warning: %s@." wmsg) warnings;
  Format.pp_print_flush ppf ();
  Buffer.contents b
