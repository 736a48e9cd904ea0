(* Host-speed calibration. Other tenants of a shared host slow this
   process by up to half, in spells from under a second to minutes, and
   code with many independent operations per cycle (QARMA MACs,
   page-table construction, the cache and core models) suffers most. The
   simulator workloads therefore take each timing between two runs of a
   fixed loop of the same kind, and scale it by how much slower than its
   reference time the loop ran around it. They are single threaded, so
   the loop sees other tenants' load, not the program's.

   The loop is a toy substitution-permutation network over sixteen 4-bit
   cells, written for the benchmark: no library code runs in it, so a
   change to the library moves only the timings it scales. *)

let sbox = [| 0xc; 0x5; 0x6; 0xb; 0x9; 0x0; 0xa; 0xd; 0x3; 0xe; 0xf; 0x8; 0x4; 0x7; 0x1; 0x2 |]
let perm = [| 0; 5; 10; 15; 4; 9; 14; 3; 8; 13; 2; 7; 12; 1; 6; 11 |]

let round key cells =
  let s = Array.map (fun c -> sbox.(c)) cells in
  let p = Array.init 16 (fun i -> s.(perm.(i))) in
  Array.init 16 (fun i -> p.(i) lxor p.((i + 4) land 15) lxor p.((i + 8) land 15) lxor key.(i))

let blocks = 2000

let work () =
  let key = Array.init 16 (fun i -> ((i * 7) + 3) land 15) in
  let x = ref (Array.init 16 Fun.id) and acc = ref 0 in
  for _ = 1 to blocks do
    for _ = 1 to 8 do
      x := round key !x
    done;
    acc := !acc + !x.(0)
  done;
  !acc

(* About the loop's median time on a 2-vCPU 2.1 GHz Xeon virtual
   machine; a scaled timing reads as if every probe around it had taken
   this long. *)
let reference_s = 0.006

(* One run of the loop, in seconds. *)
let probe () = snd (Measure.time (fun () -> Sys.opaque_identity (work ())))

(* [scale ~before ~after dt]: a duration [dt] measured between two
   probes, expressed at the reference host speed. *)
let scale ~before ~after dt = dt *. reference_s /. ((before +. after) /. 2.)
