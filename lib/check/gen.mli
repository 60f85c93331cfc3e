(** Random well-formed ND programs for the conformance harness.

    A {!spec} is a pure-data description of a spawn tree over
    [Seq]/[Par]/[Fire] with randomly sampled fire-rule sets and strand
    footprints over a small flat address space.  Specs are what the
    fuzzer generates, prints, shrinks and replays; {!build} turns one
    into a runnable {!instance} whose strand actions write
    order-sensitive values into a shared memory image and count their
    own executions — the two observables the differential oracle
    compares across execution paths.

    Generation is deterministic from a seed ({!generate}), so every
    failure the fuzzer reports is replayable with [ndsim fuzz
    --replay SEED]. *)

type leaf = {
  work : int;
  reads : (int * int) list;  (** half-open [lo, hi) intervals *)
  writes : (int * int) list;
}

type tree =
  | Leaf of leaf
  | Seq of tree list
  | Par of tree list
  | Fire of { rule : string; src : tree; snk : tree }

type spec = {
  tree : tree;
  rules : (string * Nd.Fire_rule.rule list) list;
      (** every fire type referenced by [tree] is defined here; rule
          sets may be empty (the paper's "‖" behaviour) *)
  mem : int;  (** address-space size all footprints fall within *)
}

type params = {
  max_depth : int;  (** recursion depth bound of the generated tree *)
  max_fanout : int;  (** max children of a [Seq]/[Par] node *)
  mem : int;  (** address-space size *)
  n_rule_types : int;  (** size of the fire-type pool (["R1"..]) *)
  max_rules : int;  (** max rules per fire type *)
}

val default_params : params

(** Number of strands in the spec's tree. *)
val n_leaves : spec -> int

(** QCheck2 generator of well-formed specs: every [Fire] node names a
    type from the pool, every pedigree step is >= 1, every footprint
    interval falls within [\[0, mem)]. *)
val gen : ?params:params -> unit -> spec QCheck2.Gen.t

(** [generate ~seed ?params ()] — the deterministic sample at [seed]
    (the replay primitive behind [ndsim fuzz --replay]). *)
val generate : seed:int -> ?params:params -> unit -> spec

(** [shrink spec ~still_fails] greedily minimizes [spec] while
    [still_fails] holds: subtrees are replaced by their children or by a
    trivial strand, [Seq]/[Par] children are dropped, leaf footprints
    are emptied, rules are dropped and recursive rule targets weakened
    to [Full].  [still_fails] is called at most 400 times; unless that
    runs out, the result is a local minimum, every mutation of which
    passes. *)
val shrink : spec -> still_fails:(spec -> bool) -> spec

(** {2 Building runnable instances} *)

type instance = {
  spec : spec;
  tree : Nd.Spawn_tree.t;
  registry : Nd.Fire_rule.registry;
  memory : int array;  (** the shared image strand actions mutate *)
  counts : int Atomic.t array;
      (** per-leaf execution counters (DFS leaf order), incremented by
          the leaf's action — the exactly-once observable *)
}

(** [build spec] materializes strands whose action reads the leaf's
    [reads], combines them with the leaf index through a
    non-commutative hash, and stores into each of its [writes] — so any
    two conflicting unordered strands produce a memory image that
    depends on their order, making determinacy races observable. *)
val build : spec -> instance

(** [reset i] zeroes memory and counters (call before every run). *)
val reset : instance -> unit

val pp : Format.formatter -> spec -> unit

val to_string : spec -> string
