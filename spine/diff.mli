(** Regression verdicts between two recorded sets of runs.

    A {e record} (written by [spine.exe record]) holds the host block
    and every run's result line:
    {v
    {"host": {"cores": 2, "ocaml": "5.1.1", "commit": "..."},
     "runs": [{"workload": "pipeline", "seed": 1, "attempted": 20,
               "failed": 0, "metrics": {"throughput":
                 {"value": 1.61, "unit": "1/s"}, ...}}, ...]}
    v}
    The bounds come from the [end_to_end] list of [BENCHMARK.json]. *)

type better = Lower | Higher

type bound = { metric : string; unit_ : string; better : better; bound : float }

(** The [end_to_end] bounds of a parsed [BENCHMARK.json].
    @raise Nd_util.Json.Parse_error on a malformed file. *)
val bounds : Nd_util.Json.t -> bound list

type label = Improved | Unchanged | Regressed | Unresolved

val label_name : label -> string

(** [classify ?floor b ~base ~next] — the verdict for one (workload,
    metric) from the two sets' raw values:
    - [Unresolved] when either set's spread (interquartile distance over
      median) is wider than the bound, unless the medians differ by more
      than the bound and every run of [next] reads better than every run
      of [base] ([Improved]) or every run reads worse ([Regressed]);
    - otherwise [Regressed] / [Improved] when the median moved the wrong
      / right way by more than [max (bound * |base median|) floor], and
      [Unchanged] in between. *)
val classify : ?floor:float -> bound -> base:float array -> next:float array -> label

type row = {
  workload : string;
  name : string;  (** metric name, or ["fail_rate"] *)
  unit_name : string;
  base_median : float;
  next_median : float;
  base_spread : float;
  next_spread : float;
  row_bound : float;  (** [0.] for fail_rate: any increase regresses *)
  label : label;
}

(** [compare ~bounds ~base ~next] — one row per workload present in
    both records and per bounded metric, plus a [fail_rate] row per
    workload (failed over attempted, summed over runs; any increase is a
    regression).  [setup_s] may worsen by at least 0.05 s before it
    counts. *)
val compare : bounds:bound list -> base:Nd_util.Json.t -> next:Nd_util.Json.t -> row list

val regressed : row list -> bool

val pp_rows : Format.formatter -> row list -> unit
