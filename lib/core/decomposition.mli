(** The forest-DP answer's recorded structure: one tree per graph
    component, the pivot plus every node's recorded parent, depth, cut
    decision, DP value and slack — enough to replay the cut-frontier
    decisions under a projection.

    Key preservation gives each view tuple one witness, so a brute-force
    or approximate shard answer carries over unchanged to a fragment of
    a split component; only the forest DP's answer needs its tree to
    carry over ({!restrict_forest}). Everything is keyed by tuple
    {e content} ({!key} strings), never by arena ids — a tree survives
    compaction, renumbering and re-materialization unchanged, which is
    what lets {!Planner.seed_fragments} project a cached answer onto the
    surviving fragments of a component split. *)

(** One forest-DP node, keyed by {!key}. [fn_slack] is
    [cut_cost -. nocut_cost] at solve time for uncut nodes (how much
    preserved weight the subtree can lose before the decision flips),
    [0.0] on cut nodes. *)
type forest_node = {
  fn_parent : string option;
  fn_depth : int;
  fn_cut : bool;
  fn_value : float;
  fn_slack : float;
}

type forest_tree = {
  ft_pivot : string;
  ft_nodes : (string * forest_node) list;   (** increasing recorded depth *)
}

(** Stuple content key, [Relational.Stuple.to_string]. *)
val key : Relational.Stuple.t -> string

(** [restrict_forest tree ~surviving ~lost_end] — the {e restrict}
    operation for forest answers: project a recorded tree onto the
    fragment of nodes satisfying [surviving]. [lost_end] charges each
    preserved view tuple lost with the split to its recorded endpoint
    key. Checks that the projection replays to the identical cut
    frontier (lost regions carried no value; no surviving uncut node
    flips once the lost weight leaves its subtree) and returns the
    restricted tree with values and slacks discounted so chained splits
    restrict again; [Error reason] when any guard refuses. *)
val restrict_forest :
  forest_tree ->
  surviving:(string -> bool) ->
  lost_end:(string * float) list ->
  (forest_tree, string) result
