(** Cross-executor differential oracle.

    One generated program ({!Gen.spec}) or packaged algorithm
    ({!Nd_algos.Workload.t}) is compiled once and pushed through every
    execution path the repo has — the serial reference, randomized
    topological orders, the greedy simulator, the space-bounded
    simulator, the work-stealing simulator, every scheduler-zoo member
    behind {!Nd_sched.Scheduler.S} (greedy, sb, ws, pdf, tree), and the
    real multicore dataflow and fork–join executors — and the oracle
    checks that they all agree with the serial elision and with the
    model's structural laws:

    - {b exactly-once}: every strand action runs exactly once on every
      executing path;
    - {b work conservation}: DAG work equals the spawn tree's total
      strand work, and every scheduler reports that same work;
    - {b span sanity}: [span <= work], and every simulated makespan
      obeys [max (span, ceil (work/p)) <= time], with greedy further
      bounded above by Brent's [work/p + span];
    - {b determinacy}: when one [Nd_analyze.Esp_bags] pass finds no
      race, every path leaves the same memory image as the serial
      elision (for specs) or passes the workload's own numeric check
      (for workloads);
    - {b miss monotonicity}: the SB scheduler's per-level ρ miss counts
      are non-increasing in σ (larger space bounds only merge maximal
      tasks, never split them);
    - {b static cost}: [Nd_analyze.Cost.of_program] counts the bare
      tree's leaves, and each coarse-mode SB run's per-level ρ misses
      obey Theorem 1's static bound [Q*(t; σ·M_j)]
      ([Nd_mem.Pcc.q_star]), the check [Cost.certify_theorem1] makes on
      the same run;
    - {b sharded-sim identity}: SB's decoupled measurement mode
      ([sim_workers]) yields bit-identical per-cache miss tables at 1
      and 2 workers, deterministic across repeated runs, without
      perturbing the schedule;
    - {b liveness}: the SB scheduler never raises [Deadlock] on a
      well-formed program (maximal tasks are disjoint, so coarse-mode
      contraction is acyclic), and no zoo member stalls (each raises on
      an unfinished DAG; the tree scheduler's forced admission makes
      its budget discipline deadlock-free by construction).

    A failure pinpoints the first stage that disagreed; with the
    generator's seed it is replayable via [ndsim fuzz --replay]. *)

(** The tiny 2-level, 8-processor PMH the locality simulators run on,
    sized so a full oracle run on a generated program takes
    milliseconds. *)
val machine : Nd_pmh.Pmh.t

(** SB's σ sweep, ascending. *)
val sigmas : float list

type report = {
  n_vertices : int;
  n_leaves : int;
  work : int;
  span : int;
  race_free : bool;
  n_races : int;  (** races found (capped by the detector's limit) *)
  paths : int;  (** parameterized execution paths checked *)
}

type failure = {
  stage : string;  (** e.g. ["sb sigma=0.50 coarse"], ["dataflow w=2 g=8"] *)
  message : string;
}

val pp_failure : Format.formatter -> failure -> unit

(** [check_spec ?workers spec] builds the spec ({!Gen.build}) and runs
    the full oracle, with the real executors at each worker count of
    [workers] (default [[1; 2; 4]]).  Programs with races are still
    legal inputs — the memory-equality check is simply skipped for them
    (the structural checks are not). *)
val check_spec : ?workers:int list -> Gen.spec -> (report, failure) result

(** [check_workload w] runs the oracle over a packaged algorithm:
    executing paths call [w.reset] before and require
    [w.check () <= 1e-6] after; the workload is expected to be
    race-free and any race found is a failure. *)
val check_workload : Nd_algos.Workload.t -> (report, failure) result
