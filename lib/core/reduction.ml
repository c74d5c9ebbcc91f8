module R = Relational
module Bitset = Setcover.Bitset
module Iset = Setcover.Iset

type rbsc = {
  instance : Setcover.Red_blue.t;
  set_tuple : R.Stuple.t array;
  red_vtuple : Vtuple.t array;
  blue_vtuple : Vtuple.t array;
}

type pnpsc = {
  instance : Setcover.Pos_neg.t;
  set_tuple : R.Stuple.t array;
  neg_vtuple : Vtuple.t array;
  pos_vtuple : Vtuple.t array;
}

(* Shared scaffolding, off the arena's rows: the candidate sids
   ([Arena.candidate_ids]), the bad vids and the preserved vids the
   candidates' [containing] rows touch, each ascending (Stuple /
   Vtuple order), and each candidate's (preserved, bad) members. Dead
   vids are in neither bitset, so a tombstoned arena reads its live
   slots only. *)
let skeleton (a : Arena.t) =
  let candidates = Arena.candidate_ids a in
  let touched = Bitset.create (Arena.num_vtuples a) in
  Array.iter
    (fun sid ->
      Array.iter
        (fun vid -> if Bitset.mem a.Arena.preserved vid then Bitset.add touched vid)
        a.Arena.containing.(sid))
    candidates;
  let blues = Array.of_list (Bitset.elements a.Arena.bad) in
  let reds = Array.of_list (Bitset.elements touched) in
  let index = Array.make (Arena.num_vtuples a) (-1) in
  Array.iteri (fun i vid -> index.(vid) <- i) blues;
  Array.iteri (fun i vid -> index.(vid) <- i) reds;
  let members i =
    Array.fold_left
      (fun (rs, bs) vid ->
        if Bitset.mem a.Arena.bad vid then (rs, Iset.add index.(vid) bs)
        else if Bitset.mem touched vid then (Iset.add index.(vid) rs, bs)
        else (rs, bs))
      (Iset.empty, Iset.empty)
      a.Arena.containing.(candidates.(i))
  in
  let vtuples ids = Array.map (Array.get a.Arena.vtuples) ids in
  let weights ids = Array.map (Array.get a.Arena.weights) ids in
  ( Array.map (Array.get a.Arena.stuples) candidates,
    vtuples reds, vtuples blues, weights reds, weights blues, members )

let to_red_blue a =
  let set_tuple, red_vtuple, blue_vtuple, red_weights, _, members = skeleton a in
  let sets =
    List.init (Array.length set_tuple) (fun i ->
        let reds, blues = members i in
        { Setcover.Red_blue.label = R.Stuple.to_string set_tuple.(i); red = reds; blue = blues })
  in
  let instance =
    Setcover.Red_blue.make ~red_weights ~num_blue:(Array.length blue_vtuple) sets
  in
  { instance; set_tuple; red_vtuple; blue_vtuple }

let deletion_of_red_blue (m : rbsc) (sol : Setcover.Red_blue.solution) =
  List.fold_left
    (fun acc i -> R.Stuple.Set.add m.set_tuple.(i) acc)
    R.Stuple.Set.empty sol.Setcover.Red_blue.chosen

let to_pos_neg a =
  let set_tuple, neg_vtuple, pos_vtuple, neg_weights, pos_weights, members = skeleton a in
  let sets =
    List.init (Array.length set_tuple) (fun i ->
        let negs, poss = members i in
        { Setcover.Pos_neg.label = R.Stuple.to_string set_tuple.(i); pos = poss; neg = negs })
  in
  let instance = Setcover.Pos_neg.make ~pos_weights ~neg_weights sets in
  { instance; set_tuple; neg_vtuple; pos_vtuple }

let deletion_of_pos_neg (m : pnpsc) (sol : Setcover.Pos_neg.solution) =
  List.fold_left
    (fun acc i -> R.Stuple.Set.add m.set_tuple.(i) acc)
    R.Stuple.Set.empty sol.Setcover.Pos_neg.chosen
