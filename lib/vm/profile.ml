open Ptg_util

type category = Zero | Contiguous | Non_contiguous

let categorize line =
  let pfn i = Ptg_pte.X86.pfn (Ptg_pte.Line.get line i) in
  let nonzero i = not (Int64.equal (Ptg_pte.Line.get line i) 0L) in
  Array.init 8 (fun i ->
      if not (nonzero i) then Zero
      else begin
        (* Nearest non-zero neighbour on each side. *)
        let continues j =
          nonzero j
          && Int64.equal (Int64.sub (pfn i) (pfn j)) (Int64.of_int (i - j))
        in
        let rec scan step j = if j < 0 || j > 7 then None else if nonzero j then Some j else scan step (j + step) in
        let left = scan (-1) (i - 1) and right = scan 1 (i + 1) in
        let candidate =
          match (left, right) with
          | None, None -> []
          | Some l, None -> [ l ]
          | None, Some r -> [ r ]
          | Some l, Some r ->
              if i - l < r - i then [ l ] else if r - i < i - l then [ r ] else [ l; r ]
        in
        if List.exists continues candidate then Contiguous else Non_contiguous
      end)

type process_stats = {
  total_ptes : int;
  zero : int;
  contiguous : int;
  non_contiguous : int;
  flag_uniform_lines : int;
  nonzero_lines : int;
}

(* Flags compared for uniformity: every protected non-PFN bit except
   Accessed (bit 5), which legitimately differs per page. *)
let flag_signature pte =
  let low = Int64.logand pte 0b111011111L in
  let high = Bits.extract pte ~lo:59 ~hi:63 in
  Int64.logor low (Int64.shift_left high 9)

let line_flags_uniform line =
  let sigs =
    Array.to_list (Ptg_pte.Line.to_words line)
    |> List.filter (fun w -> not (Int64.equal w 0L))
    |> List.map flag_signature
  in
  match sigs with
  | [] -> true
  | s :: rest -> List.for_all (Int64.equal s) rest

let stats_of_lines lines =
  let zero = ref 0 and contiguous = ref 0 and non_contiguous = ref 0 in
  let uniform = ref 0 and nonzero_lines = ref 0 in
  Array.iter
    (fun line ->
      Array.iter
        (function
          | Zero -> incr zero
          | Contiguous -> incr contiguous
          | Non_contiguous -> incr non_contiguous)
        (categorize line);
      if not (Ptg_pte.Line.is_zero line) then begin
        incr nonzero_lines;
        if line_flags_uniform line then incr uniform
      end)
    lines;
  {
    total_ptes = 8 * Array.length lines;
    zero = !zero;
    contiguous = !contiguous;
    non_contiguous = !non_contiguous;
    flag_uniform_lines = !uniform;
    nonzero_lines = !nonzero_lines;
  }

let pct part total = if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total
let pct_zero s = pct s.zero s.total_ptes
let pct_contiguous s = pct s.contiguous s.total_ptes
let pct_non_contiguous s = pct s.non_contiguous s.total_ptes

let flag_uniformity s =
  if s.nonzero_lines = 0 then 1.0
  else float_of_int s.flag_uniform_lines /. float_of_int s.nonzero_lines

type aggregate = {
  processes : int;
  mean_zero : float;
  stderr_zero : float;
  mean_contiguous : float;
  stderr_contiguous : float;
  mean_non_contiguous : float;
  mean_flag_uniformity : float;
  total_ptes_profiled : int;
  per_process : (float * float * float) array;
}

let aggregate stats_list =
  let stats = Array.of_list stats_list in
  let zeros = Array.map pct_zero stats in
  let contigs = Array.map pct_contiguous stats in
  let noncontigs = Array.map pct_non_contiguous stats in
  let uniforms = Array.map flag_uniformity stats in
  let per_process =
    Array.map2 (fun z (c, n) -> (z, c, n)) zeros
      (Array.map2 (fun c n -> (c, n)) contigs noncontigs)
  in
  Array.sort (fun (_, c1, _) (_, c2, _) -> compare c2 c1) per_process;
  {
    processes = Array.length stats;
    mean_zero = Stats.mean zeros;
    stderr_zero = Stats.stderr zeros;
    mean_contiguous = Stats.mean contigs;
    stderr_contiguous = Stats.stderr contigs;
    mean_non_contiguous = Stats.mean noncontigs;
    mean_flag_uniformity = Stats.mean uniforms;
    total_ptes_profiled = Array.fold_left (fun acc s -> acc + s.total_ptes) 0 stats;
    per_process;
  }
