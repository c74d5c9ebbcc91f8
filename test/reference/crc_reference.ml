(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320) on boxed [Int32], one
   closure over the string: the table-driven loop the session files were
   first checked with, kept as the oracle for [Durable.crc32]'s
   native-int loop. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl
