(** The fire-arrow resolver of the DAG Rewriting System: the one place
    a [⇝] arrow is rewritten through the registered rule sets.

    {!Program.compile} (DAG edges, fire edges and the rule tallies the
    dead-rule lint, ND002, reads) calls {!rewrite}, and so does the
    compile-free span reference of the tests ([test/cost_ref.ml]), over
    its own copy of the same post-order node layout.  The walk is the paper's: a fire node seeds the arrow
    [(src, snk, rule)]; each rule [+p ⇝R -q] of the set resolves [p]
    below the source and [q] below the sink — stopping at the deepest
    existing node — and recurses on [R], or emits a full edge for [;].
    An arrow between two leaves, and a rule that makes no structural
    progress ([p], [q] resolve in place and [R] is the same set), emit
    the conservative full edge instead.

    Only arrows with an internal end are recorded as visited, and each
    such [(a, b, rule)] arrow is expanded once.  An arrow between two
    leaves is emitted each time the walk reaches it and is not
    recorded: it rewrites nothing further, and every arrival is paid
    for by the expansion (or the fire node) that reached it.  So the
    emissions are bounded by the walk's own work — at most one per
    fire node plus one per rule application.

    All state is flat int tables scoped to one call (see DESIGN.md §5):
    the visited arrows are packed into ints in one {!Nd_util.Int_set},
    rule names are interned to ints, and nothing outlives the call. *)

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

    [edge a b] is called once per emission of a full edge [a -> b]
    with [a <> b], and a pair may repeat.  Keeping each pair's first
    call gives the distinct full edges in first-emission order: the
    pairs, and their order, that test_core checks against the reference
    walk of [test/drs_ref.ml].  A caller that needs each pair once
    drops the repeats itself ({!Program.compile} after sorting the
    pairs, the test-side span reference with an {!Nd_util.Int_set}).  The result
    lists every rule applied at least once, ordered by set name and
    then index.

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
