(** The experiment suite: one entry per table/figure/claim of the paper
    (the experiment index lives in DESIGN.md; measured-vs-paper results
    are recorded in EXPERIMENTS.md).

    - E1 — span table (Section 3 theorems; Figures 1, 8): measured NP vs
      ND spans over a size sweep with fitted growth exponents.
    - E2 — parallel cache complexity (Claim 1): Q* sweeps vs the claimed
      Θ(N^1.5/M^0.5) (dense) and Θ(n²/M) (LCS/FW1D) shapes, with the
      serial ideal-cache Q1 as a cross-check.
    - E3 — Theorem 1: per-level SB-simulated misses against the
      Q*(t; σM_j) bound.
    - E4 — Theorem 3 / Eq. 22: SB running time over a processor sweep
      against the perfect-balance bound, ND vs NP (the headline result).
    - E5 — Claims 2-3: empirical parallelizability α_max, ND vs NP.
    - E6 — SB vs randomized work stealing ([47, 48] context).
    - E7 — ablation: coarse (Figure 12) vs fine cross-anchor readiness.
    - E8 — rule-set validation: determinacy races of the paper's literal
      rule sets vs the corrected ones (DESIGN.md corrections).
    - E9 — real multicore wall-clock: serial vs ND dataflow vs NP
      fork-join executors.
    - E10 — scheduler zoo: greedy, sb, ws, pdf and tree behind the
      shared {!Nd_sched.Scheduler.S} face, compared on makespan,
      per-level misses and space high-water mark for every workload
      family at paper scale (recorded as BENCH_6.json in CI).
    - E11 — sharded cache simulation: SB's decoupled measurement mode
      replayed on one worker and on eight, with identical per-cache
      miss tables (BENCH_7.json).
    - E12 — structural cost analysis and Theorem-1 certification at
      paper scale (BENCH_8.json).

    Each experiment function {e builds} and returns its table without
    printing; the drivers below print in suite order.  Experiments are
    mutually independent (each compiles its own programs and workload
    state), so {!run_all}/{!run_all_json} execute them concurrently on
    an {!Nd_runtime.Executor.parallel_for} worker pool and report
    per-experiment wall-clock (monotonic) in a closing timings table. *)

val e1_span : unit -> Nd_util.Table.t

val e2_pcc : unit -> Nd_util.Table.t

val e3_misses : unit -> Nd_util.Table.t

val e4_scaling : unit -> Nd_util.Table.t

val e5_alpha : unit -> Nd_util.Table.t

val e6_work_stealing : unit -> Nd_util.Table.t

val e7_ablation : unit -> Nd_util.Table.t

val e8_rules : unit -> Nd_util.Table.t

val e9_runtime : unit -> Nd_util.Table.t

val e10_zoo : unit -> Nd_util.Table.t

(** [e11_sharded_sim ()] — the sharded cache-simulation benchmark
    (BENCH_7): SB in decoupled measurement mode over a sigma sweep,
    one-worker replay (the [serial] rows) vs 8-worker sharded replay
    side by side, with a miss-identical column.  The builder {e raises}
    if any sharded table diverges from the one-worker table, so a suite
    run doubles as the bit-identity acceptance gate. *)
val e11_sharded_sim : unit -> Nd_util.Table.t

(** [e12_cost ()] — the structural cost-analysis table (BENCH_8): every
    workload family at paper scale, plus mm/apsp n=512 base=16 and
    their ~98k-vertex DAGs.  Each row carries {!Nd_analyze.Cost}'s
    work, span, peak footprint and root size, and the per-level SB ρ
    misses next to the static Theorem-1 bound [Q*(sigma*M_j)].  The
    builder {e raises} if any level's misses exceed the bound, so a
    suite run doubles as the Theorem-1 certification gate. *)
val e12_cost : unit -> Nd_util.Table.t

(** [overview ()] — per-algorithm inventory (work, spans, DAG sizes) at
    the default sizes. *)
val overview : unit -> Nd_util.Table.t

(** The experiments by name, in harness order
    (["overview"; "e1" ... "e12"]). *)
val all : (string * (unit -> Nd_util.Table.t)) list

(** Per-experiment wall-clock, measured with the monotonic clock. *)
type timing = { name : string; seconds : float }

(** [build_all ?workers ?tracer ()] — run every experiment across
    [workers] domains (default {!Nd_runtime.Executor.default_workers},
    so [NDSIM_WORKERS] applies) and return the tables in suite order
    plus per-experiment timings.  Nothing is printed.  With [tracer]
    (one ring per worker, e.g. {!Nd_trace.Collector.wallclock}), each
    experiment is bracketed in [Strand_begin]/[Strand_end] span events
    labelled with the experiment name, so a Chrome export shows the
    suite's phase timeline. *)
val build_all :
  ?workers:int ->
  ?tracer:Nd_trace.Collector.t ->
  unit ->
  Nd_util.Table.t array * timing list

(** [run_all ?workers ?tracer ()] — {!build_all}, printing every table
    in suite order followed by the timings table. *)
val run_all : ?workers:int -> ?tracer:Nd_trace.Collector.t -> unit -> unit

(** [run name] — run and print one of ["overview"; "e1"..."e12"].
    @raise Not_found on an unknown name. *)
val run : string -> unit

(** [run_json ~dir name] — run one experiment, print its table, and
    additionally write [dir/<name>.json] in the
    {!Nd_util.Table.to_json} format.  Creates [dir] if missing.
    @raise Not_found on an unknown name. *)
val run_json : dir:string -> string -> unit

(** [run_all_json ?workers ?tracer ~dir ()] — {!run_all}, writing one
    JSON file per experiment plus [timings.json] with the per-phase
    wall-clock. *)
val run_all_json :
  ?workers:int ->
  ?tracer:Nd_trace.Collector.t ->
  dir:string ->
  unit ->
  unit
