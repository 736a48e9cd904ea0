(* OS exception handling for PT-Guard (paper Sections IV-G and VII-B).

   Scenario 1 — availability under a persistent hammer (the DoS
   discussion): an attacker keeps flipping bits in the DRAM row holding a
   process's leaf page table. Every walk is protected (corrected or
   aborted), but availability suffers — so the OS marks the row bad and
   REMAPS the page-table page to a fresh frame. Later hammering of the
   old row hits free memory; the process keeps running.

   Scenario 2 — collision pressure: the known-plaintext attack plants CTB
   collisions until the buffer overflows; the handler's policy re-keys all
   of memory automatically, the journal shows the whole exchange, and the
   OS evicts a tracked collision by rewriting the line.

   Run with: dune exec examples/os_response.exe *)

open Ptg_vm

let () =
  let rng = Ptg_util.Rng.create 4242L in
  let dram = Ptg_dram.Dram.create () in
  let engine = Ptguard.Engine.create ~config:Ptguard.Config.optimized ~rng () in
  let mc = Ptg_memctrl.Memctrl.create ~engine dram in
  let os = Ptg_os.Os_handler.attach ~rng:(Ptg_util.Rng.split rng) mc in
  let mem = Ptg_memctrl.Memctrl.phys_mem mc in
  let kernel_alloc =
    Frame_allocator.create ~p_break:0.0 ~start_frame:0x40000L rng
  in
  let table = Page_table.create ~mem ~alloc:kernel_alloc in
  let vaddr = 0x1234_5000L in
  Page_table.map table ~vaddr ~pte:(Ptg_pte.X86.make ~writable:true ~user:true ~pfn:0x777L ());
  let root = Page_table.root table in

  print_endline "=== Scenario 1: persistent hammering of a page-table row ===";
  let leaf_line_addr =
    let steps = Page_table.walk table ~vaddr in
    Ptg_pte.Line.line_addr (List.nth steps 3).Page_table.entry_addr
  in
  (* Wreck the line beyond correction: the walk aborts with an exception. *)
  for i = 0 to 9 do
    Ptg_dram.Dram.flip_stored_bit dram ~addr:leaf_line_addr ~bit:(i * 37 mod 512)
  done;
  (match Ptg_memctrl.Mmu.walk mc ~root ~vaddr with
  | Ptg_memctrl.Mmu.Integrity_failure _ ->
      print_endline "walk: PTECheckFailed -> exception delivered to the OS"
  | Ptg_memctrl.Mmu.Corrected_then_translated _ ->
      print_endline "walk: corrected this time (attack continues...)"
  | _ -> print_endline "unexpected");
  let coords = Ptg_dram.Geometry.decode (Ptg_dram.Dram.geometry dram) leaf_line_addr in
  Printf.printf "OS marks row %d of bank %d bad: %b\n"
    coords.Ptg_dram.Geometry.row coords.Ptg_dram.Geometry.bank
    (Ptg_os.Os_handler.is_bad_row os ~channel:coords.Ptg_dram.Geometry.channel
       ~bank:coords.Ptg_dram.Geometry.bank ~row:coords.Ptg_dram.Geometry.row);
  (* The recovery: migrate the PT page off the bad row. The damaged line is
     zeroed during the copy (its PTEs will be rebuilt on the next fault);
     the rest of the table survives. *)
  (match Ptg_os.Os_handler.remap_pt_page os ~table ~alloc:kernel_alloc ~vaddr with
  | Some (old_frame, new_frame) ->
      Printf.printf "remapped PT page: frame 0x%Lx -> 0x%Lx\n" old_frame new_frame
  | None -> print_endline "remap failed");
  (* The damaged leaf PTE was dropped; the OS re-faults the page in. *)
  Page_table.map table ~vaddr ~pte:(Ptg_pte.X86.make ~writable:true ~user:true ~pfn:0x777L ());
  (match Ptg_memctrl.Mmu.walk mc ~root ~vaddr with
  | Ptg_memctrl.Mmu.Translated { paddr; _ } ->
      Printf.printf "walk after remap+refault: translated to 0x%Lx — service restored\n"
        paddr
  | o -> Format.printf "unexpected: %a@." Ptg_memctrl.Mmu.pp_outcome o);
  (* Hammering the old row now damages nothing the process uses. *)
  for i = 0 to 9 do
    Ptg_dram.Dram.flip_stored_bit dram ~addr:leaf_line_addr ~bit:(i * 53 mod 512)
  done;
  (match Ptg_memctrl.Mmu.walk mc ~root ~vaddr with
  | Ptg_memctrl.Mmu.Translated _ ->
      print_endline "old row keeps getting hammered; walks are unaffected"
  | _ -> print_endline "unexpected");

  print_endline "\n=== Scenario 2: collision pressure and automatic re-keying ===";
  (* Known-plaintext leak, as in Section IV-G: plant collisions until the
     4-entry CTB overflows; the policy then re-keys memory. *)
  let meta =
    Int64.logor Ptg_pte.Protection.mac_field_mask Ptg_pte.Protection.identifier_field_mask
  in
  for i = 1 to 5 do
    let addr = Int64.of_int (0x9100_0000 + (64 * i)) in
    let payload = Ptg_pte.Line.init (fun j -> Int64.of_int ((i * 31) + j)) in
    ignore (Ptg_memctrl.Memctrl.write_line mc ~addr payload ());
    Ptg_dram.Dram.flip_stored_bit dram ~addr ~bit:1;
    let leaked =
      match Ptg_memctrl.Memctrl.read_line mc ~addr ~is_pte:false () with
      | { Ptg_memctrl.Memctrl.data = Some l; _ } -> l
      | _ -> assert false
    in
    let crafted =
      Ptg_pte.Line.init (fun j ->
          Int64.logor
            (Int64.logand (Ptg_pte.Line.get payload j) (Int64.lognot meta))
            (Int64.logand (Ptg_pte.Line.get leaked j) meta))
    in
    ignore (Ptg_memctrl.Memctrl.write_line mc ~addr crafted ())
  done;
  Printf.printf "collisions tracked: %d; journal (most recent first):\n"
    (Ptg_os.Os_handler.collisions_seen os);
  List.iteri
    (fun i e -> if i < 8 then Format.printf "  %a@." Ptg_os.Os_handler.pp_event e)
    (Ptg_os.Os_handler.events os);
  (* evict one remaining tracked collision by rewriting the line *)
  let some_addr = Int64.of_int (0x9100_0000 + 64) in
  let ok =
    Ptg_os.Os_handler.resolve_collision os ~addr:some_addr
      ~benign:(Ptg_pte.Line.of_words (Array.make 8 0x1111_0000_0000_0000L))
  in
  Printf.printf "collision at 0x%Lx evicted by benign rewrite: %b\n" some_addr ok
