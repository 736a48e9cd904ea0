(** x86_64 4-level radix page tables built in simulated physical memory.

    Levels follow the hardware: PML4 (bits 47:39), PDPT (38:30),
    PD (29:21), PT (20:12); every table is one 4 KB frame of 512 8-byte
    entries. The structure lives entirely inside a {!Phys_mem.t}, so when
    that memory is DRAM-backed, Rowhammer bit flips corrupt real PTE
    cachelines and hardware page walks traverse real addresses — the setup
    of the paper's Figure 3 exploit. *)

type t

type level = Pml4 | Pdpt | Pd | Pt

val level_index : level -> int64 -> int
(** The 9-bit table index a virtual address selects at a level. *)

val pp_level : Format.formatter -> level -> unit

val create : mem:Phys_mem.t -> alloc:Frame_allocator.t -> t
(** Allocates the root (PML4) frame. *)

val root : t -> int64
(** Physical address of the PML4 (the CR3 value). *)

val with_mem : t -> Phys_mem.t -> t
(** The same table (root, frame index, allocator) read and written
    through other memory, which must hold the same tables: a table built
    on scratch memory, moved onto the device its contents were restored
    into. *)

val allocator : t -> Frame_allocator.t
(** The frame allocator the table draws table pages from (checkpointing
    needs its cursor alongside the frame index below). *)

(** {2 Checkpointable state}

    The shadow frame index — the only mutable state beyond what already
    lives in physical memory. The tables themselves are restored with the
    DRAM contents. *)

type state = { s_pt_frames : int64 list; s_all_frames : int64 list }

val state : t -> state
val set_state : t -> state -> unit

val map : t -> vaddr:int64 -> pte:int64 -> unit
(** Install a leaf PTE for the 4 KB page containing [vaddr], creating
    intermediate tables as needed. [pte] is the raw leaf entry (use
    {!Ptg_pte.X86.make}). *)

val map_huge : t -> vaddr:int64 -> pde:int64 -> unit
(** Install a 2 MB mapping: [pde] is written at the PD level with the
    Huge_page (PS) bit forced on; its PFN must be 512-frame aligned.
    Walks terminate at the PD for such regions. *)

val unmap : t -> vaddr:int64 -> unit
(** Zero the leaf PTE (intermediate tables are not reclaimed, as in
    Linux's lazy teardown). *)

val lookup : t -> vaddr:int64 -> int64 option
(** The leaf PTE for [vaddr], or [None] anywhere the tree is not present.
    A functional walk — no timing, no integrity checks. *)

type walk_step = {
  level : level;
  entry_addr : int64;  (** physical address of the 8-byte entry read *)
  entry : int64;       (** its value *)
}

val walk : t -> vaddr:int64 -> walk_step list
(** The full translation walk (up to 4 steps; stops at a non-present
    entry). This is what the simulated MMU replays as timed memory
    accesses. *)

val translate : t -> vaddr:int64 -> int64 option
(** Virtual-to-physical translation of [vaddr] (requires the leaf Present
    bit); handles both 4 KB leaves and 2 MB huge mappings. *)

val leaf_line_addrs : t -> int64 list
(** Physical line addresses of every leaf (PT-level) PTE cacheline in the
    tree, each holding 8 PTEs — the population Figures 8 and 9 study.
    Sorted ascending. *)

val table_frames : t -> int64 list
(** Frames used by the tables themselves (all levels), ascending. *)
