(** The fire-arrow resolver of the DAG Rewriting System: the one place
    a [⇝] arrow is rewritten through the registered rule sets.

    {!Program.compile} (DAG edges and fire edges), the structural cost
    pass ([Nd_analyze.Cost]) and the dead-rule lint (ND002) all call
    {!rewrite}, each over its own copy of the same post-order node
    layout.  The walk is the paper's: a fire node seeds the arrow
    [(src, snk, rule)]; each rule [+p ⇝R -q] of the set resolves [p]
    below the source and [q] below the sink — stopping at the deepest
    existing node — and recurses on [R], or emits a full edge for [;].
    An arrow between two leaves, and a rule that makes no structural
    progress ([p], [q] resolve in place and [R] is the same set), emit
    the conservative full edge instead.  Each [(a, b, rule)] arrow is
    expanded once.

    All state is flat int tables scoped to one call (see DESIGN.md §5):
    visited arrows and emitted pairs are packed into ints in
    {!Nd_util.Int_set}s, rule names are interned to ints, and nothing
    outlives the call. *)

(** How often one rule of one set was applied, and how its pedigrees
    resolved: [cleans] counts applications where both pedigrees
    consumed every step; [bottoms] those where neither asked a node for
    a child it lacks but at least one stopped early at a leaf.  The
    remaining [applies - cleans - bottoms] addressed a missing child. *)
type use = {
  set : string;
  index : int;  (** 0-based position of the rule in its set *)
  applies : int;
  cleans : int;
  bottoms : int;
}

(** [rewrite ~who ~registry ~children ?edge fires] rewrites every arrow
    of [fires] — [(f, rule)] pairs naming a fire node and its set, in
    the order given — over the node layout [children] ([children.(n)]
    are [n]'s children, [[||]] for a leaf; a fire node's are [[|src;
    snk|]]).

    [edge a b] is called once per distinct full edge [a -> b] with
    [a <> b], in first-emission order.  The result lists every rule
    applied at least once, ordered by set name and then index.

    @raise Invalid_argument ["<who>: undefined fire type \"R\""] when
    the walk reaches a set [R] the registry does not define, and only
    then: sets the walk never reaches are not checked. *)
val rewrite :
  who:string ->
  registry:Fire_rule.registry ->
  children:int array array ->
  ?edge:(int -> int -> unit) ->
  (int * string) list ->
  use list
