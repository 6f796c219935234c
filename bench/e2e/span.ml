(* Bench-side spans around calls into the program's layers.

   Nothing in the libraries is instrumented: every span is opened and
   closed here, around one public call. While tracing is off a span is
   one branch on a bool ref, so the untraced run times the program
   alone.

   Aggregates (calls, total and self time per layer, and the part of
   operation time that layer spans cover) include every span. Raw spans
   are kept for the first [keep_ops] operations only, which bounds the
   memory and the size of the Chrome trace a long session writes. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = int

let max_layers = 64
let names = Array.make max_layers ""
let registered = ref 0

let layer name =
  let id = !registered in
  if id >= max_layers then invalid_arg "Span.layer: too many layers";
  names.(id) <- name;
  incr registered;
  id

(* the root span of one operation; its self time is bench glue *)
let op_layer = layer "op"

let enabled = ref false

type frame = {
  f_layer : layer;
  f_id : int;
  f_parent : int;
  f_start : int;
  mutable f_child_ns : int;
}

type span = {
  s_name : string;
  s_id : int;
  s_parent : int;
  s_op : int;  (** operation id; -1 for set-up spans *)
  s_start_ns : int;
  s_dur_ns : int;
}

type agg = {
  calls : int array;
  total_ns : int array;
  self_ns : int array;
  mutable attributed_ns : int;
      (** self time of layer spans opened inside an operation *)
}

let keep_ops = 2000

let agg =
  {
    calls = Array.make max_layers 0;
    total_ns = Array.make max_layers 0;
    self_ns = Array.make max_layers 0;
    attributed_ns = 0;
  }

let stack : frame list ref = ref []
let next_id = ref 0
let current_op = ref (-1)
let kept : span list ref = ref []

let close fr =
  let dur = now_ns () - fr.f_start in
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  (match !stack with p :: _ -> p.f_child_ns <- p.f_child_ns + dur | [] -> ());
  let self = dur - fr.f_child_ns in
  let l = fr.f_layer in
  agg.calls.(l) <- agg.calls.(l) + 1;
  agg.total_ns.(l) <- agg.total_ns.(l) + dur;
  agg.self_ns.(l) <- agg.self_ns.(l) + self;
  if l <> op_layer && !current_op >= 0 then
    agg.attributed_ns <- agg.attributed_ns + self;
  if !current_op < keep_ops then
    kept :=
      {
        s_name = names.(l);
        s_id = fr.f_id;
        s_parent = fr.f_parent;
        s_op = !current_op;
        s_start_ns = fr.f_start;
        s_dur_ns = dur;
      }
      :: !kept

let with_span l f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.f_id | [] -> -1 in
    let fr =
      { f_layer = l; f_id = !next_id; f_parent = parent; f_start = now_ns ();
        f_child_ns = 0 }
    in
    incr next_id;
    stack := fr :: !stack;
    match f () with
    | v ->
        close fr;
        v
    | exception e ->
        close fr;
        raise e
  end

(* Run [f] untraced: warm-ups inside a traced set-up must not count. *)
let quiet f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

let op id f =
  if not !enabled then f ()
  else begin
    current_op := id;
    Fun.protect ~finally:(fun () -> current_op := -1) (fun () -> with_span op_layer f)
  end

(* Exact counts gathered next to the spans (nodes, cache probes, shard
   summaries): float accumulators, so ratios need no second pass. *)
type counter = int

let counter_names = Array.make max_layers ""
let counters = Array.make max_layers 0.
let registered_counters = ref 0

let counter name =
  let id = !registered_counters in
  if id >= max_layers then invalid_arg "Span.counter: too many counters";
  counter_names.(id) <- name;
  incr registered_counters;
  id

let add c v = counters.(c) <- counters.(c) +. v

(* What a traced child sends back to the parent. *)
type snapshot = {
  layers : (string * int * int * int) list;  (** name, calls, total, self *)
  attributed : int;
  counts : (string * float) list;
  spans : span list;  (** oldest first *)
}

let snapshot () =
  {
    layers =
      List.init !registered (fun l ->
          (names.(l), agg.calls.(l), agg.total_ns.(l), agg.self_ns.(l)));
    attributed = agg.attributed_ns;
    counts = List.init !registered_counters (fun c -> (counter_names.(c), counters.(c)));
    spans = List.rev !kept;
  }
