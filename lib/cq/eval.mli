(** Evaluation of conjunctive queries over a tuple source.

    The evaluator is decoupled from {!Codb_relalg.Database} through the
    {!type:source} abstraction so that the same code runs over local
    databases, per-query overlays, and the Wrapper's temporary stores
    on mediator nodes.

    One execution strategy: every join runs through {!Plan.make} —
    atoms ordered by estimated selectivity, ground column sets probed
    through composite hash indexes, comparisons evaluated at their
    earliest ground position.  When every atom's access path carries a
    packed view the join runs on packed ints; hand-built boxed sources
    run the same plan over boxed tuples.

    Two entry points matter to the coDB algorithms:

    - {!answers} — full evaluation, used when a node first receives an
      update or query request and answers from its local data;
    - {!delta_answers} — {e semi-naive} evaluation used on every
      subsequent delta: given tuples [T'] that were just added to
      relation [R], it derives exactly the substitutions that use at
      least one tuple of [T'], the paper's "incoming links dependent on
      O are computed by substituting R by T'" step, generalised to be
      correct in the presence of self-joins. *)

type rows = {
  all : unit -> Codb_relalg.Tuple.t list;  (** every tuple *)
  all_arr : (unit -> Codb_relalg.Tuple.t array) option;
      (** array variant of [all] for the join inner loop; when absent
          the evaluator converts the list once per scan *)
  size : int;  (** cardinality, the planner's first cost input *)
  probe_cols :
    ((int * Codb_relalg.Value.t) list -> Codb_relalg.Tuple.t list) option;
      (** composite probe on a set of column bindings, served by
          {!Codb_relalg.Relation.lookup_cols}; [None] for plain tuple
          lists, which the planner then scans *)
  probe_cols_arr :
    ((int * Codb_relalg.Value.t) list -> Codb_relalg.Tuple.t array) option;
      (** array variant of [probe_cols]
          ({!Codb_relalg.Relation.lookup_cols_arr}) *)
  distinct : (int -> int) option;
      (** per-column distinct-value estimate for the planner's
          selectivity model *)
  arity : int option;
      (** tuple width when uniform, letting the evaluator reject
          wrong-arity atoms once instead of per candidate tuple *)
  packed : Codb_relalg.Relation.packed_view option;
      (** zero-copy packed access ({!Codb_relalg.Relation.packed_view}).
          When {e every} atom of a planned join carries one, the join
          runs entirely on packed ints — int-slot substitutions,
          row-id candidate sets, packed probes — and boxes a
          {!Subst.t} only per full match.  Must describe the same
          tuples as [all]. *)
}
(** Access path to one relation's tuples.  The [_arr] fields are
    optional accelerators: semantics must match their list twins (same
    tuples, any order); the evaluator prefers them and falls back to
    the lists otherwise. *)

type source = string -> rows
(** Access paths by relation name.  Unknown relations must return
    {!empty_rows}. *)

type counters = {
  probes : int;  (** candidate sets served by an index probe *)
  scans : int;  (** candidate sets served by a full scan *)
  zone_visited : int;
      (** chunks a zone-mapped scan actually walked (pruned excluded) *)
  zone_pruned : int;  (** chunks skipped outright by zone-map bounds *)
}
(** Global access-path counters (monotonic since {!reset_counters}).
    Callers wanting per-evaluation numbers snapshot before and after,
    like [Value.null_counter]. *)

val counters : unit -> counters

val reset_counters : unit -> unit

val empty_rows : rows

val rows_of_list : ?arity:int -> Codb_relalg.Tuple.t list -> rows
(** Scan-only access path over a list (used for deltas and frozen
    canonical databases).  When the rows share one arity the view also
    carries a packed columnar image, so joins mixing stored relations
    with delta feeds run on the packed int core; the planner still
    sees the source as unindexed (no probe columns), keeping plans and
    probe/scan counters identical to the boxed view.  [arity] lets an
    empty feed declare its width and stay packed-joinable. *)

val of_database :
  ?index_budget:int -> ?zone_maps:bool -> Codb_relalg.Database.t -> source
(** Probing access paths backed by {!Codb_relalg.Relation}'s lazy,
    incrementally maintained hash indexes.  [index_budget], when
    given, caps the number of indexes per relation (see
    {!Codb_relalg.Relation.set_index_budget}).  [~zone_maps:true]
    (default [false]) keeps the packed views' pruning hook
    ({!Codb_relalg.Relation.packed_view}), so planned scans consult
    per-chunk min/max summaries to skip chunks ruled out by the plan's
    sargable order predicates ({!Plan.step.st_ranges}) and constant
    equality bindings — answers are identical either way, only the
    [zone_*] counters move. *)

val source_of_alist : (string * Codb_relalg.Tuple.t list) list -> source
(** Scan-only source over an association list. *)

val answers : ?max_probe_cols:int -> source -> Query.t -> Subst.t list
(** All substitutions of the body variables satisfying body atoms and
    comparisons.  The result may contain substitutions that project to
    the same head tuple; projection and de-duplication are the
    caller's business (see {!Apply}).  [max_probe_cols] caps probe
    width (see {!Plan.make}). *)

val plan_for : ?max_probe_cols:int -> source -> Query.t -> Plan.t
(** The plan {!answers} would execute — for the CLI [explain]
    subcommand and tests. *)

val delta_answers :
  ?max_probe_cols:int ->
  source ->
  delta_rel:string ->
  delta:Codb_relalg.Tuple.t list ->
  Query.t ->
  Subst.t list
(** Semi-naive evaluation after [delta] was inserted into [delta_rel].
    The [source] must already reflect the insertion.  If the query
    does not mention [delta_rel], the result is [[]]. *)

val answer_tuples :
  ?max_probe_cols:int -> source -> Query.t -> Codb_relalg.Tuple.t list
(** Evaluate a {e user} query: project the answers on the head and
    de-duplicate.  @raise Invalid_argument if the head has existential
    variables (use {!Apply.head_tuples} for GLAV rule heads). *)

val certain : Codb_relalg.Tuple.t list -> Codb_relalg.Tuple.t list
(** The null-free (certain) answers among a list of answer tuples. *)
