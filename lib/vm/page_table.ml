open Ptg_util

type level = Pml4 | Pdpt | Pd | Pt

type t = {
  mem : Phys_mem.t;
  alloc : Frame_allocator.t;
  root : int64;
  (* Shadow index of intermediate tables so enumeration does not need to
     scan physical memory: (table frame paddr, level of entries within). *)
  mutable pt_frames : int64 list;  (* leaf-level table frames *)
  mutable all_frames : int64 list;
}

let level_shift = function Pml4 -> 39 | Pdpt -> 30 | Pd -> 21 | Pt -> 12

let level_index level vaddr =
  Int64.to_int (Bits.extract vaddr ~lo:(level_shift level) ~hi:(level_shift level + 8))

let pp_level fmt l =
  Format.pp_print_string fmt
    (match l with Pml4 -> "PML4" | Pdpt -> "PDPT" | Pd -> "PD" | Pt -> "PT")

let next_level = function
  | Pml4 -> Some Pdpt
  | Pdpt -> Some Pd
  | Pd -> Some Pt
  | Pt -> None

let frame_to_paddr f = Int64.shift_left f 12

let alloc_table t =
  let frame = Frame_allocator.alloc_discontiguous t.alloc in
  let paddr = frame_to_paddr frame in
  t.all_frames <- paddr :: t.all_frames;
  (* The kernel zeroes a fresh page-table page before linking it in; with
     a guarded memory controller behind [mem] this is also what embeds
     the MAC (MAC-zero) in every line of the new table. *)
  for i = 0 to 511 do
    t.mem.Phys_mem.write_word (Int64.add paddr (Int64.of_int (i * 8))) 0L
  done;
  paddr

let create ~mem ~alloc =
  let t = { mem; alloc; root = 0L; pt_frames = []; all_frames = [] } in
  let root = alloc_table t in
  { t with root }

let root t = t.root
let with_mem t mem = { t with mem }
let allocator t = t.alloc

type state = { s_pt_frames : int64 list; s_all_frames : int64 list }

let state t = { s_pt_frames = t.pt_frames; s_all_frames = t.all_frames }

let set_state t s =
  t.pt_frames <- s.s_pt_frames;
  t.all_frames <- s.s_all_frames

let entry_addr table_paddr index = Int64.add table_paddr (Int64.of_int (index * 8))

(* Descend one level, creating the next table if [create_missing]. *)
let descend t ~create_missing table_paddr level vaddr =
  let addr = entry_addr table_paddr (level_index level vaddr) in
  let entry = t.mem.Phys_mem.read_word addr in
  if Ptg_pte.X86.get_flag entry Ptg_pte.X86.Present then
    Some (frame_to_paddr (Ptg_pte.X86.pfn entry))
  else if not create_missing then None
  else begin
    let child = alloc_table t in
    (match level with
    | Pd -> t.pt_frames <- child :: t.pt_frames
    | Pml4 | Pdpt | Pt -> ());
    let entry =
      Ptg_pte.X86.make ~writable:true ~user:true
        ~pfn:(Int64.shift_right_logical child 12)
        ()
    in
    t.mem.Phys_mem.write_word addr entry;
    Some child
  end

let leaf_entry_addr t ~create_missing vaddr =
  let rec go table level =
    match next_level level with
    | None -> Some (entry_addr table (level_index level vaddr))
    | Some deeper -> (
        match descend t ~create_missing table level vaddr with
        | None -> None
        | Some child -> go child deeper)
  in
  go t.root Pml4

let map t ~vaddr ~pte =
  match leaf_entry_addr t ~create_missing:true vaddr with
  | Some addr -> t.mem.Phys_mem.write_word addr pte
  | None ->
      invalid_arg
        (Printf.sprintf
           "Page_table.map: could not materialise the walk for vaddr 0x%Lx \
            (an intermediate entry reads back non-present: corrupted or \
            tampered page-table memory)"
           vaddr)

let map_huge t ~vaddr ~pde =
  if Int64.rem (Ptg_pte.X86.pfn pde) 512L <> 0L then
    invalid_arg "Page_table.map_huge: PFN not 2MB-aligned";
  let pde = Ptg_pte.X86.set_flag pde Ptg_pte.X86.Huge_page true in
  let rec go table level =
    if level = Pd then
      t.mem.Phys_mem.write_word (entry_addr table (level_index Pd vaddr)) pde
    else
      match descend t ~create_missing:true table level vaddr with
      | Some child -> go child (Option.get (next_level level))
      | None ->
          invalid_arg
            (Printf.sprintf
               "Page_table.map_huge: could not materialise the walk for \
                vaddr 0x%Lx at %s (an intermediate entry reads back \
                non-present: corrupted or tampered page-table memory)"
               vaddr
               (Format.asprintf "%a" pp_level level))
  in
  go t.root Pml4

let unmap t ~vaddr =
  match leaf_entry_addr t ~create_missing:false vaddr with
  | Some addr -> t.mem.Phys_mem.write_word addr 0L
  | None -> ()

let lookup t ~vaddr =
  Option.map t.mem.Phys_mem.read_word (leaf_entry_addr t ~create_missing:false vaddr)

type walk_step = { level : level; entry_addr : int64; entry : int64 }

let walk t ~vaddr =
  let rec go table level acc =
    let addr = entry_addr table (level_index level vaddr) in
    let entry = t.mem.Phys_mem.read_word addr in
    let acc = { level; entry_addr = addr; entry } :: acc in
    if not (Ptg_pte.X86.get_flag entry Ptg_pte.X86.Present) then List.rev acc
    else if level = Pd && Ptg_pte.X86.get_flag entry Ptg_pte.X86.Huge_page then
      (* 2 MB mapping: the PD entry is the leaf. *)
      List.rev acc
    else
      match next_level level with
      | None -> List.rev acc
      | Some deeper -> go (frame_to_paddr (Ptg_pte.X86.pfn entry)) deeper acc
  in
  go t.root Pml4 []

let translate t ~vaddr =
  match List.rev (walk t ~vaddr) with
  | { level = Pt; entry; _ } :: _ when Ptg_pte.X86.get_flag entry Ptg_pte.X86.Present ->
      Some (Int64.logor (Ptg_pte.X86.phys_addr entry) (Bits.extract vaddr ~lo:0 ~hi:11))
  | { level = Pd; entry; _ } :: _
    when Ptg_pte.X86.get_flag entry Ptg_pte.X86.Present
         && Ptg_pte.X86.get_flag entry Ptg_pte.X86.Huge_page ->
      Some (Int64.logor (Ptg_pte.X86.phys_addr entry) (Bits.extract vaddr ~lo:0 ~hi:20))
  | _ -> None

let leaf_line_addrs t =
  let lines =
    List.concat_map
      (fun frame ->
        List.init 64 (fun i -> Int64.add frame (Int64.of_int (i * 64))))
      t.pt_frames
  in
  List.sort_uniq Int64.unsigned_compare lines

let table_frames t = List.sort_uniq Int64.unsigned_compare t.all_frames
