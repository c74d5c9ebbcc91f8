type t = int array

let create n = Array.init n Fun.id

(* top-level helpers, so a [find] allocates no closure *)
let rec root parent i =
  let p = parent.(i) in
  if p = i then i else root parent p

let rec compress parent r i =
  let p = parent.(i) in
  if p <> r then begin
    parent.(i) <- r;
    compress parent r p
  end

let find parent i =
  let r = root parent i in
  compress parent r i;
  r

let union parent i j =
  let ri = find parent i and rj = find parent j in
  if ri < rj then parent.(rj) <- ri else if rj < ri then parent.(ri) <- rj
