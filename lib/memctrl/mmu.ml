open Ptg_vm

type outcome =
  | Translated of { paddr : int64; pte : int64; latency : int }
  | Not_present of { level : Page_table.level; latency : int }
  | Integrity_failure of {
      level : Page_table.level;
      line_addr : int64;
      latency : int;
    }
  | Corrected_then_translated of {
      paddr : int64;
      pte : int64;
      step : Ptguard.Correction.step;
      guesses : int;
      latency : int;
    }

let levels = [ Page_table.Pml4; Page_table.Pdpt; Page_table.Pd; Page_table.Pt ]

let walk mc ~root ~vaddr =
  let latency = ref 0 in
  let correction = ref None in
  let rec go table_paddr = function
    | [] ->
        invalid_arg
          (Printf.sprintf
             "Mmu.walk: exhausted page-table levels below the PT without \
              terminating (vaddr 0x%Lx, table 0x%Lx): malformed walk \
              configuration"
             vaddr table_paddr)
    | level :: deeper -> (
        let entry_addr =
          Int64.add table_paddr (Int64.of_int (Page_table.level_index level vaddr * 8))
        in
        let line_addr = Ptg_pte.Line.line_addr entry_addr in
        let r = Memctrl.read_line mc ~addr:line_addr ~is_pte:true () in
        latency := !latency + r.Memctrl.latency;
        (match r.Memctrl.integrity with
        | Ptguard.Engine.Corrected { step; guesses } ->
            correction := Some (step, guesses)
        | _ -> ());
        match r.Memctrl.data with
        | None -> Integrity_failure { level; line_addr; latency = !latency }
        | Some line ->
            let entry = Ptg_pte.Line.get line (Int64.to_int (Int64.logand entry_addr 63L) / 8) in
            if not (Ptg_pte.X86.get_flag entry Ptg_pte.X86.Present) then
              Not_present { level; latency = !latency }
            else begin
              let huge =
                level = Page_table.Pd
                && Ptg_pte.X86.get_flag entry Ptg_pte.X86.Huge_page
              in
              match deeper with
              | _ when huge ->
                  (* 2 MB mapping terminates the walk at the PD. *)
                  let paddr =
                    Int64.logor (Ptg_pte.X86.phys_addr entry)
                      (Int64.logand vaddr 0x1F_FFFFL)
                  in
                  (match !correction with
                  | Some (step, guesses) ->
                      Corrected_then_translated
                        { paddr; pte = entry; step; guesses; latency = !latency }
                  | None -> Translated { paddr; pte = entry; latency = !latency })
              | [] ->
                  let paddr =
                    Int64.logor (Ptg_pte.X86.phys_addr entry)
                      (Int64.logand vaddr 0xfffL)
                  in
                  (match !correction with
                  | Some (step, guesses) ->
                      Corrected_then_translated
                        { paddr; pte = entry; step; guesses; latency = !latency }
                  | None -> Translated { paddr; pte = entry; latency = !latency })
              | _ ->
                  go (Int64.shift_left (Ptg_pte.X86.pfn entry) 12) deeper
            end)
  in
  go root levels

let pp_outcome fmt = function
  | Translated { paddr; pte; latency } ->
      Format.fprintf fmt "translated -> 0x%Lx (pte %a, %d cycles)" paddr
        Ptg_pte.X86.pp pte latency
  | Not_present { level; latency } ->
      Format.fprintf fmt "not present at %a (%d cycles)" Page_table.pp_level level
        latency
  | Integrity_failure { level; line_addr; latency } ->
      Format.fprintf fmt
        "PTE INTEGRITY FAILURE at %a (line 0x%Lx, %d cycles): exception to OS"
        Page_table.pp_level level line_addr latency
  | Corrected_then_translated { paddr; step; guesses; latency; _ } ->
      Format.fprintf fmt
        "translated -> 0x%Lx after correction (%s, %d guesses, %d cycles)" paddr
        (Ptguard.Correction.step_name step)
        guesses latency
