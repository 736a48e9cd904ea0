(** Metrics registry: named monotonic counters, gauges and histograms.

    Every metric is identified by a name plus an optional sorted label set
    (rendered [name{k="v",...}]). Each simulated event is counted once:
    - An event a subsystem already counts in a field of its own is
      exported with {!source}: the registry reads that field at each
      snapshot, so the hot path does no registry work at all, with or
      without a sink.
    - An event only the registry counts uses a {!counter} handle resolved
      once at construction; an update is one field mutation, and a
      subsystem built without a registry pays one [option] branch.

    A {!snapshot} flattens the registry into a sorted [(key, value)] list
    (histograms expand into [_count]/[_sum]/[_le_*] rows, all additive),
    which gives snapshots a simple algebra: {!diff} and {!merge} are
    pointwise, and {!absorb} folds a child registry's snapshot back into a
    parent — the mechanism behind deterministic cross-domain merging of
    per-task registries. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Get-or-create. Raises [Invalid_argument] if the key is already
    registered as a different metric kind, or if [name] is empty. *)

val source : t -> ?labels:(string * string) list -> string -> (unit -> int) -> unit
(** [source t name read] exports a count its owner keeps: the counter
    under [name] reads [read ()] at every snapshot (and in
    {!counter_value}). The key is get-or-create as in {!counter}, and
    the counter's value is its own count plus the sum of all its
    sources, so several owners under one key sum. The contract on
    [read]:
    - it only reads: it is cheap, has no effect, and never decreases
      (counters are monotonic);
    - it captures the owner's small count record, never the owner
      itself, so a registry does not keep a finished machine alive;
    - it is read on the snapshotting domain, so snapshot the registry
      only once the owner's domain has finished with it (or runs it).
    {!reset} rebases the counter so that it reads 0 from then on. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** [add c n] requires [n >= 0] (counters are monotonic). *)

val counter_value : counter -> int

val gauge : t -> ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram :
  t -> ?labels:(string * string) list -> ?buckets:float array -> string -> histogram
(** [buckets] are strictly-increasing upper bounds; an implicit [+inf]
    bucket is always appended. Default buckets suit cycle-count latencies:
    [25; 50; 100; 200; 400; 800]. *)

val observe : histogram -> float -> unit

type snapshot

val snapshot : t -> snapshot
(** Flattened, sorted view: own metrics plus everything {!absorb}ed. *)

val reset : t -> unit
(** Zero every registered metric and drop absorbed data: a counter with
    sources reads 0 until its owners count again. Registered handles
    stay valid. *)

val absorb : t -> snapshot -> unit
(** Add a snapshot's rows into this registry's next snapshots (pointwise
    sum). Used to reduce per-task registries in deterministic task order. *)

val rows : snapshot -> (string * float) list
val find : snapshot -> string -> float option
val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: pointwise [later - earlier] over the key union. *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum over the key union. *)

val equal : snapshot -> snapshot -> bool

val to_csv : snapshot -> string
(** [metric,value] lines with a header row; keys sorted, so byte-stable. *)

val to_jsonl : snapshot -> string
(** One [{"metric":...,"value":...}] object per line; keys sorted. *)

val save_csv : snapshot -> path:string -> unit
val save_jsonl : snapshot -> path:string -> unit
