open Ptg_util

type vma_kind = Code | Data | Heap | Stack | Shared_lib | Mmap

let vma_kind_name = function
  | Code -> "code"
  | Data -> "data"
  | Heap -> "heap"
  | Stack -> "stack"
  | Shared_lib -> "shared-lib"
  | Mmap -> "mmap"

type size_class = Small | Medium | Large

type params = {
  size_class : size_class;
  target_ptes : int;
  mean_run : float;
  mean_gap : float;
  p_break : float;
}

let jitter rng base spread = base *. (1.0 +. (spread *. ((2.0 *. Rng.float rng) -. 1.0)))

let draw_params rng =
  let u = Rng.float rng in
  let size_class, base_ptes =
    if u < 0.60 then (Small, 2048)
    else if u < 0.90 then (Medium, 30_720)
    else (Large, 245_760)
  in
  let target_ptes =
    let f = jitter rng (float_of_int base_ptes) 0.5 in
    max 512 (512 * int_of_float (Float.round (f /. 512.0)))
  in
  {
    size_class;
    target_ptes;
    (* Calibrated against Figure 8's aggregates (64.13% zero PTEs, 23.73%
       contiguous): see the calibration test in test/test_process_model.ml. *)
    mean_run = Float.max 1.5 (jitter rng 8.0 0.4);
    mean_gap = Float.max 1.5 (jitter rng 5.0 0.4);
    p_break = Float.min 0.9 (Float.max 0.05 (jitter rng 0.45 0.4));
  }

type vma = {
  kind : vma_kind;
  start_vpn : int64;
  npages : int;
  writable : bool;
  user : bool;
  no_execute : bool;
  protection_key : int64;
}

let vma_spec rng kind =
  (* Page-count ranges per mapping kind (4 KB pages). *)
  let range lo hi = lo + Rng.int rng (hi - lo + 1) in
  match kind with
  | Code -> (range 16 512, false, true, false)
  | Data -> (range 8 256, true, true, true)
  | Heap -> (range 64 4096, true, true, true)
  | Stack -> (range 8 64, true, true, true)
  | Shared_lib -> (range 16 384, false, true, false)
  | Mmap -> (range 128 8192, true, true, true)

let kinds_cycle = [| Mmap; Heap; Shared_lib; Code; Data; Shared_lib; Mmap; Stack |]

let generate_vmas rng params =
  (* Every process has the fixed segments; the PTE budget beyond them is
     filled with mmap/lib regions, as in real address spaces where
     anonymous mappings dominate large processes. *)
  let budget = ref params.target_ptes in
  let next_vpn = ref 0x7f00_0000_0L in
  let vmas = ref [] in
  let add kind =
    let npages, writable, user, no_execute = vma_spec rng kind in
    let npages = min npages (max 1 !budget) in
    let span_ptes = 512 * ((npages + 511) / 512) in
    let protection_key =
      if kind = Mmap && Rng.bernoulli rng 0.05 then Int64.of_int (1 + Rng.int rng 15)
      else 0L
    in
    vmas :=
      { kind; start_vpn = !next_vpn; npages; writable; user; no_execute; protection_key }
      :: !vmas;
    (* Next VMA starts on a fresh 2 MB (512-page) boundary, leaving a hole. *)
    next_vpn := Int64.add !next_vpn (Int64.of_int (span_ptes + 512));
    budget := !budget - span_ptes
  in
  add Code;
  add Data;
  add Stack;
  add Heap;
  let i = ref 0 in
  while !budget > 0 do
    add kinds_cycle.(!i mod Array.length kinds_cycle);
    incr i
  done;
  List.rev !vmas

(* Demand-paging run structure: alternating present runs and gaps with
   geometric lengths. Returns presence per page of the VMA. *)
let presence_map rng params npages =
  let present = Array.make npages false in
  let p_run = 1.0 /. params.mean_run and p_gap = 1.0 /. params.mean_gap in
  let i = ref 0 in
  (* Start in a gap or a run with probability proportional to their share. *)
  let in_run = ref (Rng.float rng < params.mean_run /. (params.mean_run +. params.mean_gap)) in
  while !i < npages do
    let len = 1 + Rng.geometric rng (if !in_run then p_run else p_gap) in
    if !in_run then
      for j = !i to min (npages - 1) (!i + len - 1) do
        present.(j) <- true
      done;
    i := !i + len;
    in_run := not !in_run
  done;
  present

let pte_of_frame rng vma frame =
  let accessed = Rng.bernoulli rng 0.7 in
  (* Anonymous writable pages are dirty from their first (write) fault, so
     dirty is VMA-uniform in practice — the paper measures > 99% of lines
     with identical flag values across all non-zero PTEs. A 0.1% per-page
     exception models clean-after-writeback pages. *)
  let dirty = vma.writable <> Rng.bernoulli rng 0.001 && vma.writable in
  Ptg_pte.X86.make ~writable:vma.writable ~user:vma.user ~accessed ~dirty
    ~no_execute:vma.no_execute ~protection_key:vma.protection_key ~pfn:frame ()

(* Generate the leaf PTE values of one VMA, padded to whole PT pages. *)
let vma_ptes rng params alloc vma =
  let span = 512 * ((vma.npages + 511) / 512) in
  let ptes = Array.make span 0L in
  let present = presence_map rng params vma.npages in
  (* Allocate frames per present run so contiguity reflects fault order. *)
  let i = ref 0 in
  while !i < vma.npages do
    if present.(!i) then begin
      let run_end = ref !i in
      while !run_end + 1 < vma.npages && present.(!run_end + 1) do
        incr run_end
      done;
      let frames = Frame_allocator.alloc_run alloc (!run_end - !i + 1) in
      Array.iteri
        (fun k frame -> ptes.(!i + k) <- pte_of_frame rng vma frame)
        frames;
      i := !run_end + 1
    end
    else incr i
  done;
  ptes

let leaf_lines rng params =
  let alloc =
    Frame_allocator.create ~p_break:params.p_break
      ~start_frame:(Int64.of_int (0x1000 + Rng.int rng 0x100000))
      rng
  in
  let vmas = generate_vmas rng params in
  let lines = ref [] in
  List.iter
    (fun vma ->
      let ptes = vma_ptes rng params alloc vma in
      let nlines = Array.length ptes / 8 in
      for l = nlines - 1 downto 0 do
        lines := Ptg_pte.Line.of_words (Array.sub ptes (l * 8) 8) :: !lines
      done)
    vmas;
  Array.of_list !lines

let populate rng params ~table ~alloc =
  let vmas = generate_vmas rng params in
  List.iter
    (fun vma ->
      let ptes = vma_ptes rng params alloc vma in
      Array.iteri
        (fun i pte ->
          if not (Int64.equal pte 0L) then begin
            let vaddr = Int64.shift_left (Int64.add vma.start_vpn (Int64.of_int i)) 12 in
            Page_table.map table ~vaddr ~pte
          end)
        ptes)
    vmas;
  vmas
