(** The session files' byte layer: the only code that reads a file's
    bytes or writes a file for {!Journal} and {!Snapshot}. It owns their
    CRC-32 frame, every write protocol, the fsync policy and the
    torn-write failpoint: a byte allowance [n] armed at a write's
    [?site] makes it emit its first [n] bytes, complete iff that was all
    of them, and raise {!Deleprop.Failpoint.Injected}; any other armed
    action runs through {!Deleprop.Failpoint.hit} first.

    Under [~fsync:true] every append and every replacing file is fsynced
    before it counts as written, and the parent directory after each
    rename and each file creation: POSIX makes a directory entry
    durable only then. Under [~fsync:false] nothing is fsynced; the
    files stay consistent after a process crash (an append is flushed
    before it returns, a replace lands at one rename), not necessarily
    after a power loss. *)

(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320]). *)
val crc32 : string -> int32

(** [u32 LE length | u32 LE CRC-32 | payload]. *)
val frame : string -> string

type read =
  | Frame of string * int  (** the verified payload, the offset after it *)
  | Bad_crc of int  (** delimited, checksum fails; the offset after it *)
  | Torn  (** fewer bytes left than the header or its length claims *)

(** The frame at [pos] of a file's bytes. *)
val read_frame : string -> int -> read

(** The offset after the frame at [pos], its checksum unchecked; [None]
    when the bytes do not hold all of it. *)
val skip_frame : string -> int -> int option

(** The file's bytes, or its first [upto]. Raises [Sys_error]. *)
val read_file : ?upto:int -> string -> string

type appender

(** Open for appending, creating the file when missing; append [header]
    when it is empty. *)
val open_append : fsync:bool -> header:string -> string -> appender

val append : ?site:string -> appender -> string -> unit

(** The file's length: the bytes it held when opened plus those
    appended through this appender since. *)
val written : appender -> int

val close : appender -> unit

(** Write [path ^ ".tmp"] and rename it over [path]: a crash leaves the
    old file or the new one. *)
val replace : ?site:string -> fsync:bool -> string -> string -> unit

val rename : fsync:bool -> string -> string -> unit
val truncate : string -> int -> unit

(** Delete the file, if there is one. *)
val remove : string -> unit

(** Delete the temp file a crash inside {!replace} left beside [path],
    if there is one. It never holds committed data: the rename is the
    commit point. *)
val remove_temp : string -> unit

(** A write as it reached the file system, for tests. *)
type op =
  | Create of string
  | Append of string * string  (** for a torn append, the bytes it wrote *)
  | Replace of string * string
  | Rename of string * string
  | Truncate of string * int
  | Remove of string
  | Sync_dir of string

(** [Some f] passes every later write to [f] in order, until [None]; a
    replace killed before its rename is not passed. *)
val record : (op -> unit) option -> unit
