(* Byte-identity goldens for the scenario codec. For scenarios of every
   kind — multi-seed, reduced, explicit defaults, a non-default jobs
   hint, the unprotected and the unattacked fullsys machine, a trace
   scenario per registered mitigation, and the attack, prior-defense,
   ablation, security and table artifacts (iterations and trials ride
   the wire only when given) — they pin the canonical form, the prefix
   form, both hashes and the v1 run frame. The fullsys prefix
   hashes are also the names of the CLI's `fullsys --checkpoint-dir`
   store files, one per machine. The result cache, the warm-start store
   and the router ring all key on these bytes, so none may move; the
   [Checkpoint.fullsys_key] goldens pin the key of machines built
   outside the scenario layer. Regenerate only for a deliberate format
   change, and say so. *)

module Protocol = Ptg_server.Protocol
module Scenario = Ptg_sim.Scenario
module Checkpoint = Ptg_sim.Checkpoint
module Fullsys = Ptg_sim.Fullsys
module Registry = Ptg_mitigations.Registry

(* Trace scenarios canonicalize to their file's content hash, and the
   wire frame carries the path: both are fixed by writing fixed bytes
   under fixed relative names (one needing JSON escaping). *)
let trace_contents = "# golden\n0x48000000 R 0\n0x48010040 W 3\n0x48000000 R 7\n"
let trace_file = "golden_scenario.trace"
let quoted_trace_file = {|golden "q" \ scenario.trace|}

let with_trace_files f =
  let files = [ trace_file; quoted_trace_file ] in
  List.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc trace_contents))
    files;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) files)
    f

let trace ?mitigation ?(params = []) ?(path = trace_file) ?seed () =
  Scenario.make ~trace:path ?mitigation ~mit_params:params ?seed Scenario.Trace

let cases () =
  let open Scenario in
  [
    ("fig6", make Fig6);
    ("fig6 reduced", make ~reduced:true Fig6);
    ("fig6 multi-seed", make ~seeds:3 Fig6);
    ( "fig6 explicit defaults",
      make ~seed:42L ~seeds:1 ~instrs:2_000_000 ~warmup:500_000
        ~design:Ptguard.Config.Baseline ~mac_latency:10
        ~workloads:Ptg_workloads.Workload.names Fig6 );
    ( "fig6 optimized subset jobs",
      make ~seed:7L ~reduced:true ~design:Ptguard.Config.Optimized
        ~workloads:[ "mcf"; "bc" ] ~instrs:6000 ~warmup:2000 ~jobs:4 Fig6 );
    ("fig6 mac latency", make ~mac_latency:0 ~workloads:[ "xz" ] Fig6);
    ("fig7", make Fig7);
    ("fig7 reduced", make ~reduced:true Fig7);
    ("fig7 sized", make ~instrs:5000 ~warmup:1000 ~seed:3L Fig7);
    ("fig8", make Fig8);
    ("fig8 reduced jobs", make ~reduced:true ~jobs:3 Fig8);
    ("fig8 sized", make ~processes:40 ~seed:(-5L) Fig8);
    ("fig9", make Fig9);
    ("fig9 reduced", make ~reduced:true Fig9);
    ("fig9 multi-seed", make ~seeds:2 ~lines:30 Fig9);
    ("fig9 explicit default", make ~lines:300 Fig9);
    ("multicore", make Multicore);
    ("multicore reduced", make ~reduced:true Multicore);
    ("multicore sized", make ~instrs:3000 ~mixes:2 ~jobs:2 Multicore);
    ("fullsys", make Fullsys);
    ("fullsys reduced", make ~reduced:true Fullsys);
    ("fullsys sized", make ~instrs:30_000 ~seed:7919L Fullsys);
    ("fullsys unprotected", make ~guarded:false Fullsys);
    ("fullsys unattacked", make ~attack:false Fullsys);
    ("trace", trace ());
    ("trace seeded", trace ~seed:7L ());
    ("trace quoted path", trace ~path:quoted_trace_file ~mitigation:"trr" ());
    ("trace trr", trace ~mitigation:"trr" ~params:[ ("sampler_size", Registry.Int 8) ] ());
    ("trace para", trace ~mitigation:"para" ~params:[ ("p", Registry.Float 0.1) ] ());
    ("trace para default", trace ~mitigation:"para" ());
    ( "trace soft-trr",
      trace ~mitigation:"soft-trr" ~params:[ ("threshold", Registry.Int 1000) ] () );
    ( "trace graphene",
      trace ~mitigation:"graphene"
        ~params:[ ("threshold", Registry.Int 3000); ("counters", Registry.Int 64) ]
        () );    ("attacks", make Attacks);
    ("attacks reduced", make ~reduced:true Attacks);
    ("attacks sized", make ~iterations:60_000 ~seed:7L Attacks);
    ("baselines", make Baselines);
    ("baselines sized", make ~trials:50 ~seed:3L Baselines);
    ("ablations", make Ablations);
    ("ablations reduced jobs", make ~reduced:true ~jobs:2 Ablations);
    ("security", make Security);
    ("security seeded", make ~seed:7L Security);
    ("tables", make Tables);
  ]

(* label, canonical, prefix_canonical, hash, prefix_hash, run frame *)
let expected : (string * string * string * string * string * string) list =
  [
    ( "fig6",
      "{\"design\":\"baseline\",\"instrs\":2000000,\"kind\":\"fig6\",\"mac_latency\":10,\"seed\":42,\"warmup\":500000,\"workloads\":[\"perlbench\",\"mcf\",\"omnetpp\",\"xalancbmk\",\"x264\",\"deepsjeng\",\"leela\",\"exchange2\",\"xz\",\"bwaves\",\"cactuBSSN\",\"namd\",\"povray\",\"lbm\",\"wrf\",\"cam4\",\"imagick\",\"nab\",\"fotonik3d\",\"roms\",\"bfs\",\"cc\",\"pr\",\"sssp\",\"bc\"]}",
      "{\"design\":\"baseline\",\"instrs\":2000000,\"kind\":\"fig6\",\"mac_latency\":10,\"seed\":42,\"warmup\":500000,\"workloads\":[\"perlbench\",\"mcf\",\"omnetpp\",\"xalancbmk\",\"x264\",\"deepsjeng\",\"leela\",\"exchange2\",\"xz\",\"bwaves\",\"cactuBSSN\",\"namd\",\"povray\",\"lbm\",\"wrf\",\"cam4\",\"imagick\",\"nab\",\"fotonik3d\",\"roms\",\"bfs\",\"cc\",\"pr\",\"sssp\",\"bc\"]}",
      "c86408a3d975c241",
      "c86408a3d975c241",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig6\",\"seed\":42,\"design\":\"baseline\"}}" );
    ( "fig6 reduced",
      "{\"design\":\"baseline\",\"instrs\":600000,\"kind\":\"fig6\",\"mac_latency\":10,\"seed\":42,\"warmup\":200000,\"workloads\":[\"perlbench\",\"mcf\",\"omnetpp\",\"xalancbmk\",\"x264\",\"deepsjeng\",\"leela\",\"exchange2\",\"xz\",\"bwaves\",\"cactuBSSN\",\"namd\",\"povray\",\"lbm\",\"wrf\",\"cam4\",\"imagick\",\"nab\",\"fotonik3d\",\"roms\",\"bfs\",\"cc\",\"pr\",\"sssp\",\"bc\"]}",
      "{\"design\":\"baseline\",\"instrs\":600000,\"kind\":\"fig6\",\"mac_latency\":10,\"seed\":42,\"warmup\":200000,\"workloads\":[\"perlbench\",\"mcf\",\"omnetpp\",\"xalancbmk\",\"x264\",\"deepsjeng\",\"leela\",\"exchange2\",\"xz\",\"bwaves\",\"cactuBSSN\",\"namd\",\"povray\",\"lbm\",\"wrf\",\"cam4\",\"imagick\",\"nab\",\"fotonik3d\",\"roms\",\"bfs\",\"cc\",\"pr\",\"sssp\",\"bc\"]}",
      "fcffa2c8d728f3d2",
      "fcffa2c8d728f3d2",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig6\",\"seed\":42,\"reduced\":true,\"design\":\"baseline\"}}" );
    ( "fig6 multi-seed",
      "{\"design\":\"baseline\",\"instrs\":2000000,\"kind\":\"fig6\",\"mac_latency\":10,\"seeds\":3,\"warmup\":500000,\"workloads\":[\"perlbench\",\"mcf\",\"omnetpp\",\"xalancbmk\",\"x264\",\"deepsjeng\",\"leela\",\"exchange2\",\"xz\",\"bwaves\",\"cactuBSSN\",\"namd\",\"povray\",\"lbm\",\"wrf\",\"cam4\",\"imagick\",\"nab\",\"fotonik3d\",\"roms\",\"bfs\",\"cc\",\"pr\",\"sssp\",\"bc\"]}",
      "{\"design\":\"baseline\",\"instrs\":2000000,\"kind\":\"fig6\",\"mac_latency\":10,\"seeds\":3,\"warmup\":500000,\"workloads\":[\"perlbench\",\"mcf\",\"omnetpp\",\"xalancbmk\",\"x264\",\"deepsjeng\",\"leela\",\"exchange2\",\"xz\",\"bwaves\",\"cactuBSSN\",\"namd\",\"povray\",\"lbm\",\"wrf\",\"cam4\",\"imagick\",\"nab\",\"fotonik3d\",\"roms\",\"bfs\",\"cc\",\"pr\",\"sssp\",\"bc\"]}",
      "327148d7c3d9de75",
      "327148d7c3d9de75",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig6\",\"seeds\":3,\"design\":\"baseline\"}}" );
    ( "fig6 explicit defaults",
      "{\"design\":\"baseline\",\"instrs\":2000000,\"kind\":\"fig6\",\"mac_latency\":10,\"seed\":42,\"warmup\":500000,\"workloads\":[\"perlbench\",\"mcf\",\"omnetpp\",\"xalancbmk\",\"x264\",\"deepsjeng\",\"leela\",\"exchange2\",\"xz\",\"bwaves\",\"cactuBSSN\",\"namd\",\"povray\",\"lbm\",\"wrf\",\"cam4\",\"imagick\",\"nab\",\"fotonik3d\",\"roms\",\"bfs\",\"cc\",\"pr\",\"sssp\",\"bc\"]}",
      "{\"design\":\"baseline\",\"instrs\":2000000,\"kind\":\"fig6\",\"mac_latency\":10,\"seed\":42,\"warmup\":500000,\"workloads\":[\"perlbench\",\"mcf\",\"omnetpp\",\"xalancbmk\",\"x264\",\"deepsjeng\",\"leela\",\"exchange2\",\"xz\",\"bwaves\",\"cactuBSSN\",\"namd\",\"povray\",\"lbm\",\"wrf\",\"cam4\",\"imagick\",\"nab\",\"fotonik3d\",\"roms\",\"bfs\",\"cc\",\"pr\",\"sssp\",\"bc\"]}",
      "c86408a3d975c241",
      "c86408a3d975c241",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig6\",\"seed\":42,\"design\":\"baseline\",\"mac_latency\":10,\"workloads\":[\"perlbench\",\"mcf\",\"omnetpp\",\"xalancbmk\",\"x264\",\"deepsjeng\",\"leela\",\"exchange2\",\"xz\",\"bwaves\",\"cactuBSSN\",\"namd\",\"povray\",\"lbm\",\"wrf\",\"cam4\",\"imagick\",\"nab\",\"fotonik3d\",\"roms\",\"bfs\",\"cc\",\"pr\",\"sssp\",\"bc\"],\"instrs\":2000000,\"warmup\":500000}}" );
    ( "fig6 optimized subset jobs",
      "{\"design\":\"optimized\",\"instrs\":6000,\"kind\":\"fig6\",\"mac_latency\":10,\"seed\":7,\"warmup\":2000,\"workloads\":[\"mcf\",\"bc\"]}",
      "{\"design\":\"optimized\",\"instrs\":6000,\"kind\":\"fig6\",\"mac_latency\":10,\"seed\":7,\"warmup\":2000,\"workloads\":[\"mcf\",\"bc\"]}",
      "8afd3739bd1df059",
      "8afd3739bd1df059",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig6\",\"seed\":7,\"reduced\":true,\"design\":\"optimized\",\"workloads\":[\"mcf\",\"bc\"],\"instrs\":6000,\"warmup\":2000,\"jobs\":4}}" );
    ( "fig6 mac latency",
      "{\"design\":\"baseline\",\"instrs\":2000000,\"kind\":\"fig6\",\"mac_latency\":0,\"seed\":42,\"warmup\":500000,\"workloads\":[\"xz\"]}",
      "{\"design\":\"baseline\",\"instrs\":2000000,\"kind\":\"fig6\",\"mac_latency\":0,\"seed\":42,\"warmup\":500000,\"workloads\":[\"xz\"]}",
      "67686096f1fd831f",
      "67686096f1fd831f",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig6\",\"seed\":42,\"design\":\"baseline\",\"mac_latency\":0,\"workloads\":[\"xz\"]}}" );
    ( "fig7",
      "{\"instrs\":1000000,\"kind\":\"fig7\",\"seed\":42,\"warmup\":300000}",
      "{\"instrs\":1000000,\"kind\":\"fig7\",\"seed\":42,\"warmup\":300000}",
      "6797a686c2d9ba26",
      "6797a686c2d9ba26",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig7\",\"seed\":42}}" );
    ( "fig7 reduced",
      "{\"instrs\":250000,\"kind\":\"fig7\",\"seed\":42,\"warmup\":100000}",
      "{\"instrs\":250000,\"kind\":\"fig7\",\"seed\":42,\"warmup\":100000}",
      "9ed8d74c50cc4054",
      "9ed8d74c50cc4054",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig7\",\"seed\":42,\"reduced\":true}}" );
    ( "fig7 sized",
      "{\"instrs\":5000,\"kind\":\"fig7\",\"seed\":3,\"warmup\":1000}",
      "{\"instrs\":5000,\"kind\":\"fig7\",\"seed\":3,\"warmup\":1000}",
      "296e0b2d4ade3289",
      "296e0b2d4ade3289",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig7\",\"seed\":3,\"instrs\":5000,\"warmup\":1000}}" );
    ( "fig8",
      "{\"kind\":\"fig8\",\"processes\":623,\"seed\":42}",
      "{\"kind\":\"fig8\",\"processes\":623,\"seed\":42}",
      "cc82ede41cae0a30",
      "cc82ede41cae0a30",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig8\",\"seed\":42}}" );
    ( "fig8 reduced jobs",
      "{\"kind\":\"fig8\",\"processes\":200,\"seed\":42}",
      "{\"kind\":\"fig8\",\"processes\":200,\"seed\":42}",
      "dc245a8e79f037c9",
      "dc245a8e79f037c9",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig8\",\"seed\":42,\"reduced\":true,\"jobs\":3}}" );
    ( "fig8 sized",
      "{\"kind\":\"fig8\",\"processes\":40,\"seed\":-5}",
      "{\"kind\":\"fig8\",\"processes\":40,\"seed\":-5}",
      "3e8a7b7788f1ccc1",
      "3e8a7b7788f1ccc1",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig8\",\"seed\":-5,\"processes\":40}}" );
    ( "fig9",
      "{\"kind\":\"fig9\",\"lines\":300,\"seed\":42}",
      "{\"kind\":\"fig9\",\"lines\":300,\"seed\":42}",
      "3bb17905cedc584d",
      "3bb17905cedc584d",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig9\",\"seed\":42}}" );
    ( "fig9 reduced",
      "{\"kind\":\"fig9\",\"lines\":150,\"seed\":42}",
      "{\"kind\":\"fig9\",\"lines\":150,\"seed\":42}",
      "2a10d31262e3832c",
      "2a10d31262e3832c",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig9\",\"seed\":42,\"reduced\":true}}" );
    ( "fig9 multi-seed",
      "{\"kind\":\"fig9\",\"lines\":30,\"seeds\":2}",
      "{\"kind\":\"fig9\",\"lines\":30,\"seeds\":2}",
      "a158b2690bafbfe2",
      "a158b2690bafbfe2",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig9\",\"seeds\":2,\"lines\":30}}" );
    ( "fig9 explicit default",
      "{\"kind\":\"fig9\",\"lines\":300,\"seed\":42}",
      "{\"kind\":\"fig9\",\"lines\":300,\"seed\":42}",
      "3bb17905cedc584d",
      "3bb17905cedc584d",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fig9\",\"seed\":42,\"lines\":300}}" );
    ( "multicore",
      "{\"instrs\":400000,\"kind\":\"multicore\",\"mixes\":16,\"seed\":42}",
      "{\"instrs\":400000,\"kind\":\"multicore\",\"mixes\":16,\"seed\":42}",
      "c5d5c49d46f5f386",
      "c5d5c49d46f5f386",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"multicore\",\"seed\":42}}" );
    ( "multicore reduced",
      "{\"instrs\":120000,\"kind\":\"multicore\",\"mixes\":8,\"seed\":42}",
      "{\"instrs\":120000,\"kind\":\"multicore\",\"mixes\":8,\"seed\":42}",
      "57b1cbfccc2c6cfe",
      "57b1cbfccc2c6cfe",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"multicore\",\"seed\":42,\"reduced\":true}}" );
    ( "multicore sized",
      "{\"instrs\":3000,\"kind\":\"multicore\",\"mixes\":2,\"seed\":42}",
      "{\"instrs\":3000,\"kind\":\"multicore\",\"mixes\":2,\"seed\":42}",
      "deecf6db54b62264",
      "deecf6db54b62264",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"multicore\",\"seed\":42,\"instrs\":3000,\"mixes\":2,\"jobs\":2}}" );
    ( "fullsys",
      "{\"instrs\":60000,\"kind\":\"fullsys\",\"seed\":42}",
      "{\"kind\":\"fullsys\",\"seed\":42}",
      "a0a6f8bbfa90cbdd",
      "5098005aa30bd1f8",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fullsys\",\"seed\":42}}" );
    ( "fullsys reduced",
      "{\"instrs\":20000,\"kind\":\"fullsys\",\"seed\":42}",
      "{\"kind\":\"fullsys\",\"seed\":42}",
      "30e451f19e876901",
      "5098005aa30bd1f8",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fullsys\",\"seed\":42,\"reduced\":true}}" );
    ( "fullsys sized",
      "{\"instrs\":30000,\"kind\":\"fullsys\",\"seed\":7919}",
      "{\"kind\":\"fullsys\",\"seed\":7919}",
      "fbd6f57db48fa06a",
      "32c3247c0d1987cc",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fullsys\",\"seed\":7919,\"instrs\":30000}}" );
    ( "fullsys unprotected",
      "{\"guarded\":false,\"instrs\":60000,\"kind\":\"fullsys\",\"seed\":42}",
      "{\"guarded\":false,\"kind\":\"fullsys\",\"seed\":42}",
      "0ea0348354017fee",
      "0b453ce7458da9dd",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fullsys\",\"seed\":42,\"guarded\":false}}" );
    ( "fullsys unattacked",
      "{\"attack\":false,\"instrs\":60000,\"kind\":\"fullsys\",\"seed\":42}",
      "{\"attack\":false,\"kind\":\"fullsys\",\"seed\":42}",
      "90ad2700b4955e3e",
      "d89ba9228c49860d",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"fullsys\",\"seed\":42,\"attack\":false}}" );
    ( "trace",
      "{\"kind\":\"trace\",\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "{\"kind\":\"trace\",\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "240534de24ded6a6",
      "240534de24ded6a6",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"trace\",\"seed\":42,\"trace\":\"golden_scenario.trace\"}}" );
    ( "trace seeded",
      "{\"kind\":\"trace\",\"seed\":7,\"trace\":\"2af8f83eb19a11bb\"}",
      "{\"kind\":\"trace\",\"seed\":7,\"trace\":\"2af8f83eb19a11bb\"}",
      "04081bfa6482b141",
      "04081bfa6482b141",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"trace\",\"seed\":7,\"trace\":\"golden_scenario.trace\"}}" );
    ( "trace quoted path",
      "{\"kind\":\"trace\",\"mitigation\":\"trr\",\"params\":{\"ref_interval_acts\":166,\"sample_window\":8,\"sampler_size\":4},\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "{\"kind\":\"trace\",\"mitigation\":\"trr\",\"params\":{\"ref_interval_acts\":166,\"sample_window\":8,\"sampler_size\":4},\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "be7e77581c4574e0",
      "be7e77581c4574e0",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"trace\",\"seed\":42,\"trace\":\"golden \\\"q\\\" \\\\ scenario.trace\",\"mitigation\":\"trr\"}}" );
    ( "trace trr",
      "{\"kind\":\"trace\",\"mitigation\":\"trr\",\"params\":{\"ref_interval_acts\":166,\"sample_window\":8,\"sampler_size\":8},\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "{\"kind\":\"trace\",\"mitigation\":\"trr\",\"params\":{\"ref_interval_acts\":166,\"sample_window\":8,\"sampler_size\":8},\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "b36196942bdf452c",
      "b36196942bdf452c",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"trace\",\"seed\":42,\"trace\":\"golden_scenario.trace\",\"mitigation\":\"trr\",\"params\":{\"sampler_size\":8}}}" );
    ( "trace para",
      "{\"kind\":\"trace\",\"mitigation\":\"para\",\"params\":{\"p\":0.10000000000000001},\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "{\"kind\":\"trace\",\"mitigation\":\"para\",\"params\":{\"p\":0.10000000000000001},\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "a14a9e4dce00da7b",
      "a14a9e4dce00da7b",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"trace\",\"seed\":42,\"trace\":\"golden_scenario.trace\",\"mitigation\":\"para\",\"params\":{\"p\":0.10000000000000001}}}" );
    ( "trace para default",
      "{\"kind\":\"trace\",\"mitigation\":\"para\",\"params\":{\"p\":0.001},\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "{\"kind\":\"trace\",\"mitigation\":\"para\",\"params\":{\"p\":0.001},\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "deb183361375d46a",
      "deb183361375d46a",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"trace\",\"seed\":42,\"trace\":\"golden_scenario.trace\",\"mitigation\":\"para\"}}" );
    ( "trace soft-trr",
      "{\"kind\":\"trace\",\"mitigation\":\"soft-trr\",\"params\":{\"threshold\":1000},\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "{\"kind\":\"trace\",\"mitigation\":\"soft-trr\",\"params\":{\"threshold\":1000},\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "2ef6856b444d284c",
      "2ef6856b444d284c",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"trace\",\"seed\":42,\"trace\":\"golden_scenario.trace\",\"mitigation\":\"soft-trr\",\"params\":{\"threshold\":1000}}}" );
    ( "trace graphene",
      "{\"kind\":\"trace\",\"mitigation\":\"graphene\",\"params\":{\"counters\":64,\"threshold\":3000},\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "{\"kind\":\"trace\",\"mitigation\":\"graphene\",\"params\":{\"counters\":64,\"threshold\":3000},\"seed\":42,\"trace\":\"2af8f83eb19a11bb\"}",
      "827821e886c40fc2",
      "827821e886c40fc2",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"trace\",\"seed\":42,\"trace\":\"golden_scenario.trace\",\"mitigation\":\"graphene\",\"params\":{\"threshold\":3000,\"counters\":64}}}" );    ( "attacks",
      "{\"iterations\":400000,\"kind\":\"attacks\",\"seed\":42}",
      "{\"iterations\":400000,\"kind\":\"attacks\",\"seed\":42}",
      "2379729344bf3de1",
      "2379729344bf3de1",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"attacks\",\"seed\":42}}" );
    ( "attacks reduced",
      "{\"iterations\":200000,\"kind\":\"attacks\",\"seed\":42}",
      "{\"iterations\":200000,\"kind\":\"attacks\",\"seed\":42}",
      "d20bbe19196d19f3",
      "d20bbe19196d19f3",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"attacks\",\"seed\":42,\"reduced\":true}}" );
    ( "attacks sized",
      "{\"iterations\":60000,\"kind\":\"attacks\",\"seed\":7}",
      "{\"iterations\":60000,\"kind\":\"attacks\",\"seed\":7}",
      "7e34f9f75282277a",
      "7e34f9f75282277a",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"attacks\",\"seed\":7,\"iterations\":60000}}" );
    ( "baselines",
      "{\"kind\":\"baselines\",\"seed\":42,\"trials\":500}",
      "{\"kind\":\"baselines\",\"seed\":42,\"trials\":500}",
      "a6b91263d72148fe",
      "a6b91263d72148fe",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"baselines\",\"seed\":42}}" );
    ( "baselines sized",
      "{\"kind\":\"baselines\",\"seed\":3,\"trials\":50}",
      "{\"kind\":\"baselines\",\"seed\":3,\"trials\":50}",
      "ecced9965351461b",
      "ecced9965351461b",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"baselines\",\"seed\":3,\"trials\":50}}" );
    ( "ablations",
      "{\"instrs\":400000,\"kind\":\"ablations\",\"lines\":400,\"seed\":42}",
      "{\"instrs\":400000,\"kind\":\"ablations\",\"lines\":400,\"seed\":42}",
      "4db7c4be513da5c1",
      "4db7c4be513da5c1",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"ablations\",\"seed\":42}}" );
    ( "ablations reduced jobs",
      "{\"instrs\":150000,\"kind\":\"ablations\",\"lines\":150,\"seed\":42}",
      "{\"instrs\":150000,\"kind\":\"ablations\",\"lines\":150,\"seed\":42}",
      "47bd4f257cb2eef5",
      "47bd4f257cb2eef5",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"ablations\",\"seed\":42,\"reduced\":true,\"jobs\":2}}" );
    ( "security",
      "{\"kind\":\"security\",\"seed\":42}",
      "{\"kind\":\"security\",\"seed\":42}",
      "89c3dfe49d3e8b08",
      "89c3dfe49d3e8b08",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"security\",\"seed\":42}}" );
    ( "security seeded",
      "{\"kind\":\"security\",\"seed\":42}",
      "{\"kind\":\"security\",\"seed\":42}",
      "89c3dfe49d3e8b08",
      "89c3dfe49d3e8b08",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"security\",\"seed\":7}}" );
    ( "tables",
      "{\"kind\":\"tables\",\"seed\":42}",
      "{\"kind\":\"tables\",\"seed\":42}",
      "d01cd3a871957eab",
      "d01cd3a871957eab",
      "{\"v\":1,\"op\":\"run\",\"scenario\":{\"kind\":\"tables\",\"seed\":42}}" );
  ]

let test_scenario_goldens () =
  with_trace_files (fun () ->
      let actual =
        List.map
          (fun (label, s) ->
            ( label,
              Scenario.canonical s,
              Scenario.prefix_canonical s,
              Scenario.hash s,
              Scenario.prefix_hash s,
              Protocol.encode_request (Protocol.Run s) ))
          (cases ())
      in
      Alcotest.(check int) "one golden per case" (List.length actual)
        (List.length expected);
      List.iter2
        (fun (label, c, p, h, ph, f) (label', c', p', h', ph', f') ->
          Alcotest.(check string) "case order" label' label;
          Alcotest.(check string) (label ^ ": canonical") c' c;
          Alcotest.(check string) (label ^ ": prefix_canonical") p' p;
          Alcotest.(check string) (label ^ ": hash") h' h;
          Alcotest.(check string) (label ^ ": prefix_hash") ph' ph;
          Alcotest.(check string) (label ^ ": run frame") f' f)
        actual expected)

(* The three configurations `ptguard_cli fullsys` runs, as (guarded,
   attack), each keyed at two seeds. *)
let fullsys_expected : ((bool * bool) * int64 * string) list =
  [
    ((true, false), 42L, "78104637c28011f9");
    ((true, false), 7919L, "4ba551fae88871d1");
    ((true, true), 42L, "0450d3fb69a2f644");
    ((true, true), 7919L, "d17b5dfc017bb268");
    ((false, true), 42L, "f766f929d0bcd845");
    ((false, true), 7919L, "3c1f71d879cd3bdd");
  ]

let test_fullsys_keys () =
  let actual =
    List.concat_map
      (fun (guarded, attack) ->
        List.map
          (fun seed ->
            let config = { Fullsys.default_config with guarded; attack } in
            ((guarded, attack), seed, Checkpoint.fullsys_key ~config ~seed ()))
          [ 42L; 7919L ])
      [ (true, false); (true, true); (false, true) ]
  in
  Alcotest.(check int) "one golden per config and seed" (List.length actual)
    (List.length fullsys_expected);
  List.iter2
    (fun ((g, a), seed, key) ((g', a'), seed', key') ->
      Alcotest.(check (pair bool bool)) "config order" (g', a') (g, a);
      Alcotest.(check int64) "seed order" seed' seed;
      Alcotest.(check string)
        (Printf.sprintf "fullsys_key guarded=%b attack=%b seed=%Ld" g a seed)
        key' key)
    actual fullsys_expected

let suite =
  [
    Alcotest.test_case "scenario codec goldens" `Quick test_scenario_goldens;
    Alcotest.test_case "fullsys_key goldens" `Quick test_fullsys_keys;
  ]
