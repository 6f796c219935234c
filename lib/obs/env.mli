(** Where a measurement was taken.

    Benchmark reports used to be environment-blind: [bench --json]
    overwrote BENCH_efgame.json with numbers from whatever machine it
    ran on, and the CI comparison then judged runner timings against
    workstation timings as if they were commensurable. Every report now
    carries this block, and comparisons downgrade to warnings when the
    environments differ (see the bench-smoke CI job). *)

type t = {
  hostname : string;
  cpu : string;  (** "model name" from /proc/cpuinfo; "unknown" elsewhere *)
  domains : int;  (** [Domain.recommended_domain_count ()] *)
  ocaml_version : string;
  word_size : int;
  os : string;
}

val capture : unit -> t

val emit : t -> Jsonw.t -> unit
(** Write the block as a JSON object value (use under [Jsonw.field]). *)
