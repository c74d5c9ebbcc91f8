module R = Relational
module Bitset = Setcover.Bitset

type memo = {
  m_fp : Fingerprint.t;
  m_bad : int array;  (* the solved ΔV as parent vids, ascending, all live *)
}

type t = {
  partition : Arena.partition;
  sids_of : int array array;  (* component -> live member sids, ascending *)
  vids_of : int array array;  (* component -> live member vids, ascending *)
  memo : memo option array;   (* component -> last solve memo *)
}

let partition t = t.partition
let sids_of t c = t.sids_of.(c)
let vids_of t c = t.vids_of.(c)

(* one count/fill pass per axis — the only full sweep in the module *)
let of_partition (p : Arena.partition) =
  let nc = p.num_components in
  let bucket comp_of =
    let counts = Array.make nc 0 in
    Array.iter (fun c -> if c >= 0 then counts.(c) <- counts.(c) + 1) comp_of;
    let rosters = Array.map (fun n -> Array.make n 0) counts in
    let fill = Array.make nc 0 in
    Array.iteri
      (fun id c ->
        if c >= 0 then begin
          rosters.(c).(fill.(c)) <- id;
          fill.(c) <- fill.(c) + 1
        end)
      comp_of;
    rosters
  in
  {
    partition = p;
    sids_of = bucket p.comp_of_sid;
    vids_of = bucket p.comp_of_vid;
    memo = Array.make nc None;
  }

let build (a : Arena.t) = of_partition (Arena.partition a)

let delete t ~(before : Arena.t) ~dd (a' : Arena.t) =
  (* ids are stable under a tombstoning delete, so unaffected components
     keep their rosters (and memos) verbatim under their new label, and
     only the affected components' survivors re-bucket — O(affected
     members), not O(‖D‖ + ‖V‖) *)
  let p = t.partition in
  let p' = Arena.partition_delete p ~before ~dd a' in
  let affected = Array.make p.num_components false in
  R.Stuple.Set.iter
    (fun st -> affected.(p.comp_of_sid.(Arena.stuple_id before st)) <- true)
    dd;
  let nc' = p'.num_components in
  let sids_of = Array.make nc' [||] in
  let vids_of = Array.make nc' [||] in
  let memo = Array.make nc' None in
  Array.iteri
    (fun c roster ->
      if not affected.(c) then begin
        (* every member survived; any one names the new label *)
        let c' = p'.comp_of_sid.(roster.(0)) in
        sids_of.(c') <- roster;
        vids_of.(c') <- t.vids_of.(c);
        memo.(c') <- t.memo.(c)
      end)
    t.sids_of;
  (* affected components shatter: walk their old rosters descending,
     consing live survivors onto their fragment's list keeps each
     fragment ascending. Fragment labels never collide with the
     unaffected labels above (labels partition the live slots). *)
  let frag_s = Array.make nc' [] in
  let frag_v = Array.make nc' [] in
  Array.iteri
    (fun c roster ->
      if affected.(c) then
        for i = Array.length roster - 1 downto 0 do
          let sid = roster.(i) in
          if not (Bitset.mem a'.Arena.dead_s sid) then
            frag_s.(p'.comp_of_sid.(sid)) <- sid :: frag_s.(p'.comp_of_sid.(sid))
        done)
    t.sids_of;
  Array.iteri
    (fun c roster ->
      if affected.(c) then
        for i = Array.length roster - 1 downto 0 do
          let vid = roster.(i) in
          if not (Bitset.mem a'.Arena.dead_v vid) then begin
            let c' = p'.comp_of_vid.(vid) in
            if c' >= 0 then frag_v.(c') <- vid :: frag_v.(c')
          end
        done)
    t.vids_of;
  for c' = 0 to nc' - 1 do
    match frag_s.(c') with
    | [] -> ()
    | l ->
      sids_of.(c') <- Array.of_list l;
      vids_of.(c') <- Array.of_list frag_v.(c')
  done;
  { partition = p'; sids_of; vids_of; memo }

let insert t ~(before : Arena.t) (a' : Arena.t) =
  let p = t.partition in
  let p' = Arena.partition_insert p ~before a' in
  if before.Arena.stuples == a'.Arena.stuples then begin
    (* resurrect branch: dead bits flipped back in place. An old
       component's members stay together (insertions only merge), so
       each maps wholesale to one new label; a new label is [changed] if
       several old components landed on it or a newly-live slot joined
       it — those re-gather and sort, the rest share rosters and memos. *)
    let nc = p.num_components and nc' = p'.num_components in
    let target = Array.make nc (-1) in
    Array.iteri (fun c roster -> target.(c) <- p'.comp_of_sid.(roster.(0))) t.sids_of;
    let got = Array.make nc' 0 in
    Array.iter (fun c' -> if c' >= 0 then got.(c') <- got.(c') + 1) target;
    let fresh = Array.make nc' false in
    Bitset.iter_diff
      (fun sid -> fresh.(p'.comp_of_sid.(sid)) <- true)
      before.Arena.dead_s a'.Arena.dead_s;
    Bitset.iter_diff
      (fun vid ->
        let c' = p'.comp_of_vid.(vid) in
        if c' >= 0 then fresh.(c') <- true)
      before.Arena.dead_v a'.Arena.dead_v;
    let changed c' = got.(c') > 1 || fresh.(c') in
    let sids_of = Array.make nc' [||] in
    let vids_of = Array.make nc' [||] in
    let memo = Array.make nc' None in
    Array.iteri
      (fun c roster ->
        let c' = target.(c) in
        if not (changed c') then begin
          sids_of.(c') <- roster;
          vids_of.(c') <- t.vids_of.(c);
          memo.(c') <- t.memo.(c)
        end)
      t.sids_of;
    let frag_s = Array.make nc' [] in
    let frag_v = Array.make nc' [] in
    Array.iteri
      (fun c roster ->
        let c' = target.(c) in
        if changed c' then begin
          Array.iter (fun sid -> frag_s.(c') <- sid :: frag_s.(c')) roster;
          Array.iter (fun vid -> frag_v.(c') <- vid :: frag_v.(c')) t.vids_of.(c)
        end)
      t.sids_of;
    Bitset.iter_diff
      (fun sid ->
        let c' = p'.comp_of_sid.(sid) in
        if changed c' then frag_s.(c') <- sid :: frag_s.(c'))
      before.Arena.dead_s a'.Arena.dead_s;
    Bitset.iter_diff
      (fun vid ->
        let c' = p'.comp_of_vid.(vid) in
        if c' >= 0 && changed c' then frag_v.(c') <- vid :: frag_v.(c'))
      before.Arena.dead_v a'.Arena.dead_v;
    for c' = 0 to nc' - 1 do
      if changed c' then begin
        let s = Array.of_list frag_s.(c') in
        let v = Array.of_list frag_v.(c') in
        Array.sort Int.compare s;
        Array.sort Int.compare v;
        sids_of.(c') <- s;
        vids_of.(c') <- v
      end
    done;
    { partition = p'; sids_of; vids_of; memo }
  end
  else
    (* merge branch: the extend compacted and merged sorted runs — every
       id moved, so re-bucket from the patched partition *)
    of_partition p'

let compact t ~(before : Arena.t) =
  if not (Arena.tombstoned before) then t
  else begin
    let p' = Arena.compact_partition ~before t.partition in
    let rank dead n =
      let r = Array.make n (-1) in
      let k = ref 0 in
      for i = 0 to n - 1 do
        if not (Bitset.mem dead i) then begin
          r.(i) <- !k;
          incr k
        end
      done;
      r
    in
    let rs = rank before.Arena.dead_s (Arena.num_stuples before) in
    let rv = rank before.Arena.dead_v (Arena.num_vtuples before) in
    (* rosters hold live ids only and live ranks are monotone, so the
       remapped rosters stay ascending *)
    let remap r roster = Array.map (fun id -> r.(id)) roster in
    {
      partition = p';
      sids_of = Array.map (remap rs) t.sids_of;
      vids_of = Array.map (remap rv) t.vids_of;
      memo =
        Array.map
          (Option.map (fun m -> { m with m_bad = remap rv m.m_bad }))
          t.memo;
    }
  end

let active t (a : Arena.t) =
  let p = t.partition in
  let seen = Hashtbl.create 16 in
  Bitset.iter
    (fun vid ->
      let c = p.comp_of_vid.(vid) in
      if not (Hashtbl.mem seen c) then Hashtbl.add seen c ())
    a.Arena.bad;
  let comps = List.sort Int.compare (Hashtbl.fold (fun c () acc -> c :: acc) seen []) in
  Array.of_list
    (List.map
       (fun c -> { Arena.p_component = c; p_sids = t.sids_of.(c); p_vids = t.vids_of.(c) })
       comps)

let record_memo t ~component ~fp ~bad = t.memo.(component) <- Some { m_fp = fp; m_bad = bad }

let memo t c =
  match t.memo.(c) with None -> None | Some m -> Some (m.m_fp, m.m_bad)
