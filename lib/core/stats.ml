module R = Relational

type t = {
  num_relations : int;
  db_size : int;
  num_queries : int;
  max_arity : int;
  view_size : int;
  deletion_size : int;
  num_candidates : int;
  witness_min : int;
  witness_max : int;
  witness_avg : float;
  preserved_degree_max : int;
  forest_case : bool;
  pivot_case : bool;
  claim1_bound : float;
  thm4_bound : float;
}

let compute (prov : Provenance.t) =
  let problem = prov.Provenance.problem and arena = Arena.build prov in
  let witness_sizes = Array.to_list (Array.map Array.length arena.Arena.witness) in
  let wmin = List.fold_left min max_int witness_sizes in
  let wmax = List.fold_left max 0 witness_sizes in
  let wavg =
    match witness_sizes with
    | [] -> 0.0
    | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  let degree_max =
    Array.fold_left max 0 (Array.init (Arena.num_stuples arena) (Arena.preserved_degree arena))
  in
  {
    num_relations = List.length (R.Schema.Db.relations (R.Instance.schema problem.Problem.db));
    db_size = R.Instance.size problem.Problem.db;
    num_queries = List.length problem.Problem.queries;
    max_arity = Problem.max_arity problem;
    view_size = Problem.view_size problem;
    deletion_size = Problem.deletion_size problem;
    num_candidates = Array.length (Arena.candidate_ids arena);
    witness_min = (if witness_sizes = [] then 0 else wmin);
    witness_max = wmax;
    witness_avg = wavg;
    preserved_degree_max = degree_max;
    forest_case = Hypergraph.Dual.is_forest_case problem.Problem.queries;
    pivot_case = Dp_tree.applicable arena;
    claim1_bound = General_approx.bound arena;
    thm4_bound = Lowdeg.bound problem;
  }

let pp ppf s =
  Format.fprintf ppf
    "@[<v>relations: %d, tuples: %d, queries: %d@ l (max arity): %d, ||V||: %d, ||ΔV||: %d@ \
     candidates: %d, witness size: %d..%d (avg %.1f), max preserved degree: %d@ \
     forest case: %b, pivot case: %b@ Claim 1 bound: %.1f, Thm 4 bound: %.1f@]"
    s.num_relations s.db_size s.num_queries s.max_arity s.view_size s.deletion_size
    s.num_candidates s.witness_min s.witness_max s.witness_avg s.preserved_degree_max
    s.forest_case s.pivot_case s.claim1_bound s.thm4_bound

let csv_header =
  "num_relations,db_size,num_queries,max_arity,view_size,deletion_size,num_candidates,\
   witness_min,witness_max,witness_avg,preserved_degree_max,forest_case,pivot_case,\
   claim1_bound,thm4_bound"

let to_csv s =
  Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%d,%b,%b,%.3f,%.3f" s.num_relations
    s.db_size s.num_queries s.max_arity s.view_size s.deletion_size s.num_candidates
    s.witness_min s.witness_max s.witness_avg s.preserved_degree_max s.forest_case
    s.pivot_case s.claim1_bound s.thm4_bound
