module R = Relational

type coverage = {
  bad : Vtuple.t;
  killers : R.Stuple.t list;
}

type damage = {
  lost : Vtuple.t;
  cause : R.Stuple.t list;
}

type t = {
  outcome : Side_effect.outcome;
  coverage : coverage list;
  damage : damage list;
}

let explain (prov : Provenance.t) deletion =
  let outcome = Side_effect.eval prov deletion in
  let hit vt =
    R.Stuple.Set.elements (R.Stuple.Set.inter (Provenance.witness_of prov vt) deletion)
  in
  let coverage =
    Vtuple.Set.elements prov.Provenance.bad
    |> List.map (fun bad -> { bad; killers = hit bad })
  in
  let damage =
    Vtuple.Set.elements (Lazy.force outcome.Side_effect.side_effect)
    |> List.map (fun lost -> { lost; cause = hit lost })
  in
  { outcome; coverage; damage }

let pp_stuples ppf sts =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    R.Stuple.pp ppf sts

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@ " Side_effect.pp t.outcome;
  List.iter
    (fun c ->
      match c.killers with
      | [] -> Format.fprintf ppf "✗ %a survives (no witness tuple deleted)@ " Vtuple.pp c.bad
      | ks -> Format.fprintf ppf "✓ %a removed by %a@ " Vtuple.pp c.bad pp_stuples ks)
    t.coverage;
  List.iter
    (fun d ->
      Format.fprintf ppf "! %a lost collaterally via %a@ " Vtuple.pp d.lost pp_stuples d.cause)
    t.damage;
  Format.fprintf ppf "@]"
