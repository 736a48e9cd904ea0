(** Sparse per-bank row state: an open-addressing table from row numbers
    to one unboxed [int] cell each, holding only the rows that have an
    entry. It is the one row table of the repository: {!Dram} keeps its
    activation counts in it, and the Rowhammer fault model its
    per-row disturbance.

    Rows are non-negative. Building, clearing and listing a table cost
    time proportional to the rows it holds, not to the bank's size, and
    updating a row that already has an entry allocates nothing. Slot
    numbers returned by {!find} stay valid until the next {!add},
    {!incr} of an absent row, {!replace} of an absent row, {!remove} or
    {!clear}. *)

type t

val create : unit -> t
(** An empty table. *)

val length : t -> int
(** Rows holding an entry. *)

val find : t -> int -> int
(** The slot holding [row], or [-1] when [row] has no entry. *)

val cell : t -> int -> int
(** The cell at a slot {!find} returned. *)

val set_cell : t -> int -> int -> unit
(** Overwrite the cell at a slot {!find} returned. *)

val get : t -> int -> int
(** The row's cell, or [0] when the row has no entry. *)

val add : t -> int -> int -> unit
(** Give a row that has no entry one, with the given cell. *)

val incr : t -> int -> int
(** Add one to the row's cell ([0] for a row without an entry, which
    gets one) and return the new value. *)

val replace : t -> int -> int -> unit
(** Set the row's cell, adding an entry when it has none. *)

val remove : t -> int -> unit
(** Drop the row's entry; a row without one is left alone. *)

val clear : t -> unit
(** Drop every entry. *)

val to_list : t -> (int * int) list
(** Every (row, cell) entry, in ascending row order. *)
