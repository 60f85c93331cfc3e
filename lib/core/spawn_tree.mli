(** Spawn trees: programs in the NP and ND models.

    Internal nodes are the composition constructs — [Seq] (";"), [Par]
    ("‖") and [Fire] ("⇝", carrying its fire-rule type name) — and leaves
    are strands.  A spawn tree together with a {!Fire_rule.registry}
    determines an algorithm DAG via the DRS (see {!Program}). *)

type t =
  | Leaf of Strand.t
  | Seq of t list
  | Par of t list
  | Fire of { rule : string; src : t; snk : t }

(** Smart constructors. [seq] and [par] require at least one child and
    flatten singleton lists away. *)
val leaf : Strand.t -> t

val seq : t list -> t

val par : t list -> t

val fire : rule:string -> t -> t -> t

(** [child t i] is the [i]-th (1-based) subtask: for [Fire], 1 = source and
    2 = sink.  @raise Not_found if out of range or [t] is a leaf. *)
val child : t -> int -> t

(** [resolve t p] follows pedigree [p] as deep as it goes and returns the
    reached node together with the unconsumed suffix of [p].  The suffix is
    non-empty only when a step was out of range or a leaf was reached early
    (the DRS then attaches the arrow at the deepest node, per the paper's
    convention that arrows incident to leaves are full dependencies). *)
val resolve : t -> Pedigree.t -> t * Pedigree.t

(** [n_leaves t] counts strands. *)
val n_leaves : t -> int

(** [depth t] is the height of the tree (a leaf has depth 1). *)
val depth : t -> int

(** [work t] is the total strand work (T_1 composition rule: summation for
    all three constructs). *)
val work : t -> int

(** [serialize_fires t] is the NP projection: every [Fire] becomes
    [Seq \[src; snk\]].  This is how the paper obtains the NP baseline
    variants (replacing "⇝" with ";"). *)
val serialize_fires : t -> t

(** [np_span t] is the span of the NP projection, the [Dag.span] of
    the compiled [serialize_fires t], without compiling it: a leaf's
    work, the sum over a [Seq]'s children or a [Fire]'s two, and the
    max over a [Par]'s children.  It takes O(nodes) time and allocates
    nothing. *)
val np_span : t -> int

(** [parallelize_fires t] replaces every [Fire] with [Par \[src; snk\]] —
    the (unsound in general) zero-dependency projection, useful for span
    lower-bound sanity checks in tests. *)
val parallelize_fires : t -> t

(** [fire_types t] lists the distinct fire-rule type names appearing in the
    tree, in first-occurrence order. *)
val fire_types : t -> string list

val pp : Format.formatter -> t -> unit
