module R = Relational
module Bitset = Setcover.Bitset
module Uf = Setcover.Unionfind
module Imap = Map.Make (Int)

(* ---- sid -> component id: a persistent array with O(1) reads ----

   Copy-on-write in 256-entry chunks. An edit copies the chunk directory
   once and each chunk it writes to once, so a commit pays for the
   chunks its delta reaches — the same order of words as the dead-bitset
   copies [Arena.delete] makes — and the labels it started from stay
   valid. Dead sids read -1. *)

let chunk_bits = 8
let chunk_mask = (1 lsl chunk_bits) - 1

type labels = { len : int; dir : int array array }

let get l sid = l.dir.(sid lsr chunk_bits).(sid land chunk_mask)

let labels_of_array a =
  let len = Array.length a in
  {
    len;
    dir =
      Array.init
        ((len + chunk_mask) lsr chunk_bits)
        (fun k ->
          let lo = k lsl chunk_bits in
          Array.sub a lo (min (chunk_mask + 1) (len - lo)));
  }

(* an edit in progress: a chunk still physically shared with [src] is
   copied on its first write *)
type edit = { src : labels; edir : int array array }

let edit l = { src = l; edir = Array.copy l.dir }
let read e sid = e.edir.(sid lsr chunk_bits).(sid land chunk_mask)

let write e sid c =
  let k = sid lsr chunk_bits in
  if e.edir.(k) == e.src.dir.(k) then e.edir.(k) <- Array.copy e.src.dir.(k);
  e.edir.(k).(sid land chunk_mask) <- c

(* ---- component records ---- *)

type memo = {
  m_fp : Fingerprint.t;
  m_bad : int array;  (* the solved ΔV as parent vids, ascending, all live *)
}

type comp = {
  id : int;
  sids : int array;    (* live member sids, ascending, never empty *)
  vids : int array;    (* live member vids, ascending *)
  memo : memo option;  (* the component's last planner answer *)
  dirty : bool;        (* touched since that answer (or never solved) *)
}

(* Every record sits in two maps: by id, and by least live sid — the
   canonical order, which the exports fold in O(components) instead of
   sorting. A delta never changes a record's members in place (it drops
   the record and adds fresh ones), so a record's key in [order] holds
   until a compaction or merge-path insert moves every id and rebuilds
   the map. *)
type t = {
  labels : labels;      (* sid -> component id *)
  comps : comp Imap.t;  (* id -> record *)
  order : comp Imap.t;  (* least live sid -> record *)
  count : int;          (* live components *)
  next : int;           (* the next fresh id: ids are never reused *)
  nv : int;             (* vid slots, for the canonical export *)
}

let components t = t.count
let component_of_sid t sid = get t.labels sid

(* a view tuple lives in the component of its witness *)
let component_of_vid t (a : Arena.t) vid =
  let w = a.Arena.witness.(vid) in
  if Array.length w = 0 || Bitset.mem a.Arena.dead_v vid then -1
  else get t.labels w.(0)

let comp t c = Imap.find c t.comps
let sids_of t c = (comp t c).sids
let vids_of t c = (comp t c).vids
let dirty t c = (comp t c).dirty

let memo t c =
  match (comp t c).memo with None -> None | Some m -> Some (m.m_fp, m.m_bad)

(* a record updated in place of its old version *)
let put t x =
  { t with comps = Imap.add x.id x t.comps; order = Imap.add x.sids.(0) x t.order }

let record_memo t ~component ~fp ~bad =
  put t { (comp t component) with memo = Some { m_fp = fp; m_bad = bad } }

let clean t c =
  let x = comp t c in
  if x.dirty then put t { x with dirty = false } else t

let order_of comps = Imap.fold (fun _ x o -> Imap.add x.sids.(0) x o) comps Imap.empty

(* bucket positions [i] by [keys.(i)] (negative keys skip), keeping
   [value i] in ascending [i] order *)
let group n keys value =
  let counts = Array.make n 0 in
  Array.iter (fun k -> if k >= 0 then counts.(k) <- counts.(k) + 1) keys;
  let out = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make n 0 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        out.(k).(fill.(k)) <- value i;
        fill.(k) <- fill.(k) + 1
      end)
    keys;
  out

let labels_of_comps n comps =
  let a = Array.make n (-1) in
  Imap.iter (fun c x -> Array.iter (fun sid -> a.(sid) <- c) x.sids) comps;
  labels_of_array a

(* ids start out as the canonical labels *)
let build (a : Arena.t) =
  let p = Arena.partition a in
  let nc = p.Arena.num_components in
  let sids = group nc p.Arena.comp_of_sid Fun.id in
  let vids = group nc p.Arena.comp_of_vid Fun.id in
  let comps =
    Imap.of_seq
      (Seq.init nc (fun c ->
           (c, { id = c; sids = sids.(c); vids = vids.(c); memo = None; dirty = true })))
  in
  {
    labels = labels_of_array p.Arena.comp_of_sid;
    comps;
    order = order_of comps;
    count = nc;
    next = nc;
    nv = Arena.num_vtuples a;
  }

(* ---- canonical views: a component's label is its rank in [order] ---- *)

let partition t =
  let comp_of_sid = Array.make t.labels.len (-1) in
  let comp_of_vid = Array.make t.nv (-1) in
  let label = ref 0 in
  Imap.iter
    (fun _ x ->
      Array.iter (fun sid -> comp_of_sid.(sid) <- !label) x.sids;
      Array.iter (fun vid -> comp_of_vid.(vid) <- !label) x.vids;
      incr label)
    t.order;
  { Arena.comp_of_sid; comp_of_vid; num_components = t.count }

let dirty_labels t =
  let k = ref 0 and acc = ref [] in
  Imap.iter
    (fun _ x ->
      if x.dirty then acc := !k :: !acc;
      incr k)
    t.order;
  List.rev !acc

let set_dirty_labels t labels =
  let want = Array.make t.count false in
  List.iter (fun k -> if k >= 0 && k < t.count then want.(k) <- true) labels;
  (* [Imap.map] visits keys in increasing order: rank order *)
  let k = ref 0 in
  let order =
    Imap.map
      (fun x ->
        let w = want.(!k) in
        incr k;
        if x.dirty = w then x else { x with dirty = w })
      t.order
  in
  { t with order; comps = Imap.map (fun x -> Imap.find x.sids.(0) order) t.comps }

(* ---- deltas ---- *)

(* An index under construction: label writes go through [ed]; every
   component [add] creates gets a fresh id, starts dirty and has no
   memo. *)
type draft = {
  ed : edit;
  mutable dcomps : comp Imap.t;
  mutable dorder : comp Imap.t;
  mutable dcount : int;
  mutable dnext : int;
}

let draft labels t =
  { ed = edit labels; dcomps = t.comps; dorder = t.order; dcount = t.count; dnext = t.next }

let drop d x =
  d.dcomps <- Imap.remove x.id d.dcomps;
  d.dorder <- Imap.remove x.sids.(0) d.dorder;
  d.dcount <- d.dcount - 1

let add d sids vids =
  let x = { id = d.dnext; sids; vids; memo = None; dirty = true } in
  Array.iter (fun sid -> write d.ed sid x.id) sids;
  d.dcomps <- Imap.add x.id x d.dcomps;
  d.dorder <- Imap.add sids.(0) x d.dorder;
  d.dcount <- d.dcount + 1;
  d.dnext <- x.id + 1

let finish d ~nv =
  { labels = { len = d.ed.src.len; dir = d.ed.edir }; comps = d.dcomps;
    order = d.dorder; count = d.dcount; next = d.dnext; nv }

(* position of [x] in the ascending [a.(lo..hi)] *)
let rec bisect a x lo hi =
  if lo > hi then invalid_arg "Component_index: id outside its component";
  let mid = (lo + hi) lsr 1 in
  let y = a.(mid) in
  if y = x then mid else if y < x then bisect a x (mid + 1) hi else bisect a x lo (mid - 1)

let index_of a x = bisect a x 0 (Array.length a - 1)

let live dead ids = Array.of_list (List.filter (fun i -> not (Bitset.mem dead i)) (Array.to_list ids))

(* The fragments of component [x] once [a'] tombstoned part of it:
   union-find over its surviving witness rows only. Union-by-min makes a
   fragment's root its least member, so fragments come out ascending by
   least sid. *)
let fragments (a' : Arena.t) x =
  let s = live a'.Arena.dead_s x.sids and v = live a'.Arena.dead_v x.vids in
  let m = Array.length s in
  let uf = Uf.create m in
  Array.iter
    (fun vid ->
      let w = a'.Arena.witness.(vid) in
      let i0 = index_of s w.(0) in
      for k = 1 to Array.length w - 1 do
        Uf.union uf i0 (index_of s w.(k))
      done)
    v;
  let frag = Array.make m 0 and nf = ref 0 in
  for i = 0 to m - 1 do
    let r = Uf.find uf i in
    if r = i then begin
      frag.(i) <- !nf;
      incr nf
    end
    else frag.(i) <- frag.(r)
  done;
  let vfrag = Array.map (fun vid -> frag.(index_of s a'.Arena.witness.(vid).(0))) v in
  (group !nf frag (fun i -> s.(i)), group !nf vfrag (fun i -> v.(i)))

let delete t ~(before : Arena.t) ~dd (a' : Arena.t) =
  let d = draft t.labels t in
  let affected =
    R.Stuple.Set.fold
      (fun st acc ->
        let sid = Arena.stuple_id before st in
        let c = get t.labels sid in
        write d.ed sid (-1);
        if c < 0 || List.mem c acc then acc else c :: acc)
      dd []
  in
  List.iter
    (fun c ->
      let x = comp t c in
      let sids, vids = fragments a' x in
      drop d x;
      Array.iteri (fun k s -> add d s vids.(k)) sids)
    (List.sort Int.compare affected);
  finish d ~nv:t.nv

let sorted_concat l =
  let a = Array.concat l in
  Array.sort Int.compare a;
  a

(* Merge, per connected group, the components the gained witness rows
   bridge and the gained sids they reach; each group becomes one
   component under a fresh id. Nodes of the union-find: gained sid [k]
   is node [k], touched components follow in first-touch order. *)
let merge d (a' : Arena.t) ~gained_s ~gained_v =
  let g = Array.length gained_s in
  let node_of_comp = Hashtbl.create 8 and touched = ref [] in
  Array.iter
    (fun vid ->
      Array.iter
        (fun sid ->
          let c = read d.ed sid in
          if c >= 0 && not (Hashtbl.mem node_of_comp c) then begin
            Hashtbl.add node_of_comp c (g + Hashtbl.length node_of_comp);
            touched := c :: !touched
          end)
        a'.Arena.witness.(vid))
    gained_v;
  let comp_of_node = Array.of_list (List.rev !touched) in
  let node sid =
    let c = read d.ed sid in
    if c >= 0 then Hashtbl.find node_of_comp c else index_of gained_s sid
  in
  let nn = g + Array.length comp_of_node in
  let uf = Uf.create nn in
  let vroot =
    Array.map
      (fun vid ->
        let w = a'.Arena.witness.(vid) in
        let n0 = node w.(0) in
        for k = 1 to Array.length w - 1 do
          Uf.union uf n0 (node w.(k))
        done;
        n0)
      gained_v
  in
  let s_acc = Array.make nn [] and v_acc = Array.make nn [] in
  for n = 0 to nn - 1 do
    let r = Uf.find uf n in
    if n < g then s_acc.(r) <- [| gained_s.(n) |] :: s_acc.(r)
    else begin
      let c = comp_of_node.(n - g) in
      let x = Imap.find c d.dcomps in
      s_acc.(r) <- x.sids :: s_acc.(r);
      v_acc.(r) <- x.vids :: v_acc.(r);
      drop d x
    end
  done;
  Array.iteri
    (fun i vid ->
      let r = Uf.find uf vroot.(i) in
      v_acc.(r) <- [| vid |] :: v_acc.(r))
    gained_v;
  for n = 0 to nn - 1 do
    if Uf.find uf n = n then add d (sorted_concat s_acc.(n)) (sorted_concat v_acc.(n))
  done

(* slots dead before and live after, ascending *)
let newly_live dead_before dead_after =
  let acc = ref [] in
  Bitset.iter_diff (fun i -> acc := i :: !acc) dead_before dead_after;
  Array.of_list (List.rev !acc)

(* the merge walk [Arena.extend] made: old live slot -> new slot, and
   the new slots no old live slot maps to, ascending *)
let correspond ~dead ~equal old_tbl new_tbl =
  let n = Array.length old_tbl in
  let map = Array.make n (-1) and gained = ref [] and i = ref 0 in
  let skip_dead () = while !i < n && Bitset.mem dead !i do incr i done in
  skip_dead ();
  Array.iteri
    (fun j x ->
      if !i < n && equal old_tbl.(!i) x then begin
        map.(!i) <- j;
        incr i;
        skip_dead ()
      end
      else gained := j :: !gained)
    new_tbl;
  (map, Array.of_list (List.rev !gained))

let remap m ids = Array.map (fun i -> m.(i)) ids

(* Every member id moved to [smap]/[vmap]'s image (live members map to
   live slots, monotonically, so rosters stay ascending): re-map the
   records in one pass and rebuild the labels over [ns] sid slots. Ids
   and dirty bits stay; [memo] maps each memo. *)
let move t ~ns ~nv smap vmap ~memo =
  let comps =
    Imap.map
      (fun x -> { x with sids = remap smap x.sids; vids = remap vmap x.vids; memo = memo x.memo })
      t.comps
  in
  { t with comps; order = order_of comps; labels = labels_of_comps ns comps; nv }

let insert t ~(before : Arena.t) (a' : Arena.t) =
  let t, gained_s, gained_v =
    if before.Arena.stuples == a'.Arena.stuples then
      (* resurrection: dead bits flipped back in place, no id moved *)
      ( t,
        newly_live before.Arena.dead_s a'.Arena.dead_s,
        newly_live before.Arena.dead_v a'.Arena.dead_v )
    else begin
      (* merge path: [Arena.extend] compacted [before] and merged sorted
         runs, so every id moved — re-map the members first (memos
         drop) *)
      let smap, gained_s =
        correspond ~dead:before.Arena.dead_s ~equal:R.Stuple.equal
          before.Arena.stuples a'.Arena.stuples
      in
      let vmap, gained_v =
        correspond ~dead:before.Arena.dead_v ~equal:Vtuple.equal
          before.Arena.vtuples a'.Arena.vtuples
      in
      ( move t ~ns:(Arena.num_stuples a') ~nv:(Arena.num_vtuples a') smap vmap
          ~memo:(fun _ -> None),
        gained_s,
        gained_v )
    end
  in
  let d = draft t.labels t in
  merge d a' ~gained_s ~gained_v;
  finish d ~nv:t.nv

let compact t ~(before : Arena.t) =
  if not (Arena.tombstoned before) then t
  else begin
    let rank dead n =
      let r = Array.make n (-1) and k = ref 0 in
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
    (* memo ΔVs are live vids: they remap with the rosters *)
    move t ~ns:(Arena.live_stuples before) ~nv:(Arena.live_vtuples before) rs rv
      ~memo:(Option.map (fun m -> { m with m_bad = remap rv m.m_bad }))
  end

let active t (a : Arena.t) =
  let seen = Hashtbl.create 16 in
  Bitset.iter
    (fun vid ->
      let c = get t.labels a.Arena.witness.(vid).(0) in
      if not (Hashtbl.mem seen c) then Hashtbl.add seen c (comp t c))
    a.Arena.bad;
  let act = Array.of_seq (Hashtbl.to_seq_values seen) in
  Array.sort (fun x y -> Int.compare x.sids.(0) y.sids.(0)) act;
  Array.map
    (fun x -> { Arena.p_component = x.id; p_sids = x.sids; p_vids = x.vids })
    act
