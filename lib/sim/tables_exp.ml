open Ptg_util

let table title header rows = title ^ "\n" ^ Table.render ~header rows

let to_string () =
  let c = Ptg_cpu.Core.default_config in
  let cache_desc (cfg : Ptg_cpu.Cache.config) =
    Printf.sprintf "%dKB, %d-way" (cfg.Ptg_cpu.Cache.size_bytes / 1024)
      cfg.Ptg_cpu.Cache.assoc
  in
  let cost cfg =
    Printf.sprintf "%s (Section V-E):\n"
      (Ptguard.Config.design_name cfg.Ptguard.Config.design)
    ^ Format.asprintf "%a@.@." Ptguard.Cost.pp (Ptguard.Cost.of_config cfg)
  in
  String.concat "\n"
    [
      table "Table I: x86_64 Page Table Entry" [ "Bit(s)"; "Purpose" ]
        [
          [ "0"; "Present" ];
          [ "1"; "Writable" ];
          [ "2"; "User Accessible" ];
          [ "3"; "Write Through" ];
          [ "4"; "Cache Disable" ];
          [ "5"; "Accessed" ];
          [ "6"; "Dirty" ];
          [ "7"; "2 MB Page" ];
          [ "8"; "Global" ];
          [ "11:9"; "Usable by OS" ];
          [ "51:12"; "PFN" ];
          [ "58:52"; "Ignored" ];
          [ "62:59"; "Memory Protection Keys" ];
          [ "63"; "No Execute" ];
        ];
      table "Table II: ARMv8 Page Table Entry" [ "Bit(s)"; "Purpose" ]
        [
          [ "0"; "Valid" ];
          [ "1"; "Block (HP)" ];
          [ "5:2"; "Memory Attributes" ];
          [ "7:6"; "Access Permissions" ];
          [ "9:8"; "PFN[39:38]" ];
          [ "10"; "Accessed" ];
          [ "11"; "Caching" ];
          [ "49:12"; "PFN[37:0]" ];
          [ "50"; "Reserved" ];
          [ "51"; "Dirty" ];
          [ "52"; "Contiguous" ];
          [ "54:53"; "Execute-Never" ];
          [ "58:55"; "Ignored" ];
          [ "62:59"; "Hardware Attributes" ];
          [ "63"; "Reserved" ];
        ];
      table "Table III: Baseline system configuration" [ "Component"; "Configuration" ]
        [
          [ "Core"; "In-order, 3 GHz, x86_64 ISA" ];
          [ "TLB"; Printf.sprintf "%d entry, fully associative" c.Ptg_cpu.Core.tlb_entries ];
          [ "MMU cache"; cache_desc c.Ptg_cpu.Core.mmu_cache ];
          [ "L1-D cache"; cache_desc c.Ptg_cpu.Core.l1 ];
          [ "L2 cache"; cache_desc c.Ptg_cpu.Core.l2 ];
          [ "L3 cache"; cache_desc c.Ptg_cpu.Core.l3 ];
          [ "DRAM"; "4 GB DDR4 (1 channel, 16 banks, 8KB rows)" ];
        ];
      "Table IV: bits protected by the MAC in the PTE\n"
      ^ Format.asprintf "%a@." (Ptg_pte.Protection.pp_table_iv Ptg_pte.Protection.default) ();
      cost Ptguard.Config.baseline ^ cost Ptguard.Config.optimized;
    ]
