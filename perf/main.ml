(** perf: the layered host-performance benchmark of the simulator.

    One invocation runs one workload in a fresh process:

    {v
    dune exec perf/main.exe -- --workload W --seed N [--seconds S]
        [--trace 0|1] [--scale F] [--json FILE]
    v}

    It sets up several times (inputs, then a warm-up rep at a tenth of
    the scale), runs timed reps of identical work until [--seconds] are
    spent (at least three), runs one untimed rep that probes the heap,
    checks every leg's simulated outputs, and prints each metric as
    [metric <name> <value> <unit>] (medians over the reps) followed by
    a one-line JSON result.  [--trace 1] adds a traced rep
    and ablation reruns and prints the per-layer metrics instead.  See
    perf/README.md. *)

module W = Workload
module Stats = Sim_stats.Stats

let usage =
  "usage: main.exe --workload NAME --seed N [--seconds S] [--trace 0|1] \
   [--scale F] [--json FILE]"

exception Bad_input of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_input s)) fmt

type opts = {
  workload : W.t;
  seed : int;
  seconds : float;
  traced : bool;
  scale : float;
  json : string option;
}

let parse args =
  let rec pairs = function
    | [] -> []
    | flag :: rest
      when List.mem flag
             [ "--workload"; "--seed"; "--seconds"; "--trace"; "--scale"; "--json" ]
      -> (
        match rest with
        | v :: rest -> (flag, v) :: pairs rest
        | [] -> bad "%s needs a value" flag)
    | a :: _ -> bad "unknown argument %s" a
  in
  let kv = pairs args in
  let get flag = List.assoc_opt flag kv in
  let number flag ~default ~ok conv =
    match get flag with
    | None -> default
    | Some v -> (
        match conv v with
        | Some x when ok x -> x
        | _ -> bad "%s: bad value %S" flag v)
  in
  let workload =
    match get "--workload" with
    | None -> bad "--workload is required"
    | Some n -> (
        match List.find_opt (fun (w : W.t) -> w.W.name = n) W.all with
        | Some w -> w
        | None ->
            bad "unknown workload %S (known: %s)" n
              (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all)))
  in
  if get "--seed" = None then bad "--seed is required";
  {
    workload;
    seed = number "--seed" ~default:0 ~ok:(fun s -> s >= 0) int_of_string_opt;
    seconds =
      number "--seconds" ~default:0.0
        ~ok:(fun s -> Float.is_finite s && s >= 0.0)
        float_of_string_opt;
    traced =
      (match get "--trace" with
      | None | Some "0" -> false
      | Some "1" -> true
      | Some v -> bad "--trace: bad value %S (0 or 1)" v);
    scale =
      number "--scale" ~default:1.0
        ~ok:(fun s -> Float.is_finite s && s > 0.0)
        float_of_string_opt;
    json = get "--json";
  }

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      Printf.eprintf "FAIL %s\n%!" s)
    fmt

let digest (r : W.result) = Digest.to_hex (Digest.string r.W.summary)

(* Committed digests, "<leg> <hex> <summary>" per line: one file per
   workload when its legs do not depend on the seed, else one per seed
   for seeds 1-3.  At scale 1 that file must exist; other seeds and
   scales have none. *)
let expected_file o =
  let w = o.workload in
  if o.scale <> 1.0 then None
  else if not w.W.seeded then Some (Printf.sprintf "perf/expected/%s.txt" w.W.name)
  else if o.seed >= 1 && o.seed <= 3 then
    Some (Printf.sprintf "perf/expected/%s-seed%d.txt" w.W.name o.seed)
  else None

let load_expected o =
  match expected_file o with
  | None ->
      Printf.eprintf "note: no committed digests for %s at seed %d, scale %g\n%!"
        o.workload.W.name o.seed o.scale;
      None
  | Some f when not (Sys.file_exists f) ->
      incr attempted;
      fail "no committed digests: %s is missing" f;
      None
  | Some f ->
      let tbl = Hashtbl.create 16 in
      In_channel.with_open_text f In_channel.input_lines
      |> List.iter (fun l ->
             match String.split_on_char ' ' l with
             | leg :: hex :: _ -> Hashtbl.replace tbl leg hex
             | _ -> ());
      Some tbl

(** The legs a rep ran must be exactly the legs with committed
    digests. *)
let check_legs expected (results : W.result list) =
  incr attempted;
  let ran = List.map (fun (r : W.result) -> r.W.name) results in
  let committed = List.of_seq (Hashtbl.to_seq_keys expected) in
  let missing = List.filter (fun l -> not (List.mem l ran)) committed
  and extra = List.filter (fun l -> not (Hashtbl.mem expected l)) ran in
  if missing <> [] || extra <> [] then
    fail "legs differ from the committed digests: not run [%s], not committed [%s]"
      (String.concat " " missing) (String.concat " " extra)

(** Count and report [results]' failures, and hold each leg's digest
    to [reference] (recording it there on first sight). *)
let check ~what reference (results : W.result list) =
  List.iter
    (fun (r : W.result) ->
      attempted := !attempted + r.W.runs;
      List.iter (fun m -> Printf.eprintf "FAIL %s %s: %s\n%!" what r.W.name m) r.W.failures;
      failed := !failed + min r.W.runs (List.length r.W.failures);
      let d = digest r in
      match Hashtbl.find_opt reference r.W.name with
      | None -> Hashtbl.replace reference r.W.name d
      | Some d0 ->
          incr attempted;
          if d <> d0 then
            fail "%s %s: digest %s, expected %s (%s)" what r.W.name d d0 r.W.summary)
    results

(* ------------------------------------------------------------------ *)
(* Measuring                                                           *)

let now () = float_of_int (Trace.now_ns ()) *. 1e-9

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median xs = Stats.percentile xs 50.0

type sample = {
  wall : float;
  cpu : float;
  insns : int;
  ops : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  major_collections : int;
  results : W.result list;
}

let measure rep =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let r0 = !Sim_cpu.Cpu.retired in
  let c0 = cpu_now () in
  let t0 = now () in
  let results = rep () in
  let wall = now () -. t0 in
  let cpu = cpu_now () -. c0 in
  let g1 = Gc.quick_stat () in
  {
    wall;
    cpu;
    insns = !Sim_cpu.Cpu.retired - r0;
    ops = List.fold_left (fun n (r : W.result) -> n + r.W.ops) 0 results;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    results;
  }

(** One set-up: build the inputs and run the warm-up rep at a tenth of
    the scale.  Returns the full-scale rep. *)
let setup o warm_digests =
  let w = o.workload in
  check ~what:"warm-up" warm_digests (w.W.prepare ~seed:o.seed ~scale:(o.scale /. 10.0) ());
  w.W.prepare ~seed:o.seed ~scale:o.scale

let setups = 3
let min_reps = 3

(* ------------------------------------------------------------------ *)
(* The traced pass                                                     *)

type counts = {
  hits : int;
  misses : int;
  invalidations : int;
  compiled : int;
  kills : int;
  block_insns : int;
  exit_budget : int;
  exit_smc : int;
  fallbacks : int;
  retired : int;
}

let global_counts () =
  let open Sim_cpu.Icache in
  let hits, misses, invalidations, _ = totals () in
  {
    hits;
    misses;
    invalidations;
    compiled = !g_blocks_compiled;
    kills = !g_block_kills;
    block_insns = !g_block_insns;
    exit_budget = !g_bexit_budget;
    exit_smc = !g_bexit_smc;
    fallbacks = !g_block_fb_cold + !g_block_fb_uncompilable + !g_block_fb_hooked;
    retired = !Sim_cpu.Cpu.retired;
  }

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Ablation reruns are a tenth of the scale, and their time
   differences are scaled back up to one rep. *)
let ablation_factor = 10.0

(** The traced rep and the ablation reruns; returns the per-layer
    metrics.  [untraced] is the median untraced rep wall time. *)
let traced_pass o ~untraced ~rep_digests ~warm_digests ~gc =
  let w = o.workload in
  Leg.counters := Leg.fresh_counters ();
  let c0 = global_counts () in
  Gc.full_major ();
  Trace.start ();
  Trace.set_leg "setup";
  let rep = w.W.prepare ~seed:o.seed ~scale:o.scale in
  let t0 = now () in
  let results = rep () in
  let traced_wall = now () -. t0 in
  Trace.stop ();
  let c1 = global_counts () in
  check ~what:"traced" rep_digests results;
  if not (Sys.file_exists "perf-out") then Sys.mkdir "perf-out" 0o755;
  let spans = Printf.sprintf "perf-out/%s-seed%d.spans.jsonl" w.W.name o.seed in
  Trace.write_spans spans;
  Printf.printf "spans %s\n" spans;
  let small = o.scale /. ablation_factor in
  let time_rep ~checked =
    let rep = w.W.prepare ~seed:o.seed ~scale:small in
    let t0 = now () in
    let results = rep () in
    let wall = now () -. t0 in
    if checked then check ~what:"ablation" warm_digests results;
    wall
  in
  let saved f =
    let base = time_rep ~checked:true in
    f true;
    let off = time_rep ~checked:true in
    f false;
    (off -. base) *. ablation_factor
  in
  (* An ablation of a switch the workload's legs do not honour reads 0. *)
  let ablation s f = if List.mem s w.W.switches then f () else 0.0 in
  let blocks_saved = ablation W.Blocks (fun () -> saved (fun off -> Leg.blocks := not off)) in
  let icache_saved = ablation W.Icache (fun () -> saved (fun off -> Leg.icache := not off)) in
  Leg.observers_override := Some [];
  let bare = ablation W.Observers (fun () -> time_rep ~checked:false) in
  let observer_deltas =
    List.map
      (fun ob ->
        ( Printf.sprintf "observer.%s.delta_s" (Leg.observer_name ob),
          ablation W.Observers (fun () ->
              Leg.observers_override := Some [ ob ];
              (time_rep ~checked:false -. bare) *. ablation_factor),
          "s" ))
      Leg.all_observers
  in
  Leg.observers_override := None;
  let d f = float_of_int (f c1 - f c0) in
  let self k = snd (Trace.totals k) in
  let leg_total = fst (Trace.totals Trace.Leg) in
  let kc = !Leg.counters in
  let slice_us = Trace.slice_samples_us () in
  (* No slices are sampled when every leg runs inside a library entry
     point. *)
  let slice_pc p = if slice_us = [] then 0.0 else Stats.percentile slice_us p in
  let retired = d (fun c -> c.retired) in
  [
    ("cpu.retired_insns", retired, "count");
    ("icache.hit_ratio", ratio (d (fun c -> c.hits)) (d (fun c -> c.hits + c.misses)), "ratio");
    ("icache.misses", d (fun c -> c.misses), "count");
    ("icache.invalidations", d (fun c -> c.invalidations), "count");
    ("blocks.insn_share", ratio (d (fun c -> c.block_insns)) retired, "ratio");
    ("blocks.compiled", d (fun c -> c.compiled), "count");
    ("blocks.kills", d (fun c -> c.kills), "count");
    ("blocks.exit_budget", d (fun c -> c.exit_budget), "count");
    ("blocks.exit_smc", d (fun c -> c.exit_smc), "count");
    ("blocks.fallbacks", d (fun c -> c.fallbacks), "count");
    ("cpu.blocks_saved_s", blocks_saved, "s");
    ("cpu.icache_saved_s", icache_saved, "s");
    ("mem.mapped_pages", float_of_int kc.Leg.mapped_pages, "count");
    ("mem.code_mut", float_of_int kc.Leg.code_mut, "count");
    ("kernel.slices", float_of_int !Trace.slices, "count");
    ("kernel.slice_us_p50", slice_pc 50.0, "us");
    ("kernel.slice_us_p99", slice_pc 99.0, "us");
    ("kernel.self_s", self Trace.Run, "s");
    ("kernel.syscalls", float_of_int kc.Leg.syscalls, "count");
  ]
  @ List.map
      (fun p ->
        ( "kernel.syscalls."
          ^ String.map
              (function '-' -> '_' | c -> c)
              (Sim_trace.Event.path_name p),
          float_of_int kc.Leg.by_path.(Sim_kernel.Kmetrics.path_index p),
          "count" ))
      Sim_trace.Event.all_paths
  @ [
      ("kernel.signals", float_of_int kc.Leg.signals, "count");
      ("interposer.install_s", self Trace.Install, "s");
      ("interposer.rewrites", float_of_int kc.Leg.rewrites, "count");
      ("interposer.hypercalls", float_of_int (Trace.count Trace.Hypercall), "count");
      ("interposer.hypercall_s", self Trace.Hypercall, "s");
      ("interposer.hook_calls", float_of_int (Trace.count Trace.Hook), "count");
      ("interposer.hook_s", self Trace.Hook, "s");
      ("wrk.actor_calls", float_of_int (Trace.count Trace.Actor), "count");
      ("wrk.actor_s", self Trace.Actor, "s");
      ("wrk.actor_share", ratio (self Trace.Actor) leg_total, "ratio");
      ("setup.inputs_s", self Trace.Inputs, "s");
      ("setup.compile_s", self Trace.Compile, "s");
      ("setup.kernel_create_s", self Trace.Kernel_create, "s");
      ("setup.spawn_s", self Trace.Spawn, "s");
      ("setup.boot_s", self Trace.Boot, "s");
      ("observer.attach_s", self Trace.Attach, "s");
    ]
  @ observer_deltas
  @ [
      ("audit.entries", float_of_int kc.Leg.audit_entries, "count");
      ("audit.checkpoints", float_of_int kc.Leg.audit_checkpoints, "count");
      ("tracer.dropped", float_of_int kc.Leg.tracer_dropped, "count");
      ("chaos.injections", float_of_int kc.Leg.injections, "count");
      ("harness.fuzz_run_s", self Trace.Fuzz_run, "s");
      ("harness.diff_s", self Trace.Diff, "s");
      ("oracle.check_s", self Trace.Check, "s");
    ]
  @ gc
  @ [ ("trace.overhead_frac", ratio traced_wall untraced -. 1.0, "ratio") ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let str s = "\"" ^ String.escaped s ^ "\""

let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

(* A leg's wall time in every rep. *)
let leg_walls reps name =
  List.map
    (fun s -> (List.find (fun (x : W.result) -> x.W.name = name) s.results).W.wall)
    reps

let write_json path o ~setup_walls ~reps ~metrics =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"host\": {\"ocaml_version\": %s, \"backend_type\": %s, \"word_size\": %d, \"nproc\": %d},\n"
    (str Sys.ocaml_version)
    (str
       (match Sys.backend_type with
       | Sys.Native -> "native"
       | Sys.Bytecode -> "bytecode"
       | Sys.Other s -> s))
    Sys.word_size
    (Domain.recommended_domain_count ());
  p "  \"workload\": %s, \"seed\": %d, \"scale\": %s, \"seconds\": %s, \"traced\": %b,\n"
    (str o.workload.W.name) o.seed (num o.scale) (num o.seconds) o.traced;
  p "  \"attempted\": %d, \"failed\": %d,\n" !attempted !failed;
  p "  \"setup_s\": %s,\n" (json_list num setup_walls);
  let per f = json_list (fun s -> num (f s)) reps in
  p "  \"reps\": {\"wall_s\": %s, \"cpu_s\": %s, \"sim_insns\": %s, \"ops\": %s},\n"
    (per (fun s -> s.wall)) (per (fun s -> s.cpu))
    (per (fun s -> float_of_int s.insns))
    (per (fun s -> float_of_int s.ops));
  p "  \"metrics\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun (n, v, u, samples) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s, \"samples\": %s}" (str n)
              (num v) (str u) (json_list num samples))
          metrics));
  let first = (List.hd reps).results in
  p "  \"legs\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (r : W.result) ->
            Printf.sprintf
              "    {\"name\": %s, \"digest\": %s, \"summary\": %s, \"ops\": %d, \"wall_s\": %s}"
              (str r.W.name) (str (digest r)) (str r.W.summary) r.W.ops
              (json_list num (leg_walls reps r.W.name)))
          first));
  close_out oc

let run o =
  let expected = load_expected o in
  let rep_digests =
    match expected with Some e -> Hashtbl.copy e | None -> Hashtbl.create 16
  in
  let warm_digests = Hashtbl.create 16 in
  let setup_runs =
    List.init setups (fun _ ->
        Gc.full_major ();
        let t0 = now () in
        let rep = setup o warm_digests in
        (now () -. t0, rep))
  in
  let setup_walls = List.map fst setup_runs in
  let reps_fn = snd (List.hd setup_runs) in
  let t_start = now () in
  let rec loop acc =
    let s = measure reps_fn in
    check ~what:"rep" rep_digests s.results;
    let acc = s :: acc in
    let n = List.length acc in
    let elapsed = now () -. t_start in
    if n < min_reps || elapsed +. (elapsed /. float_of_int n) <= o.seconds then loop acc
    else List.rev acc
  in
  let reps = loop [] in
  Option.iter (fun e -> check_legs e (List.hd reps).results) expected;
  (* One more rep, untimed, that probes the heap at the end of every
     leg. *)
  Leg.heap_probe := true;
  check ~what:"heap" rep_digests (reps_fn ());
  Leg.heap_probe := false;
  let m f = median (List.map f reps) in
  let samples f = List.map f reps in
  List.iter
    (fun (r : W.result) ->
      Printf.printf "digest %s %s %s\n" r.W.name (digest r) r.W.summary)
    (List.hd reps).results;
  List.iter
    (fun (r : W.result) ->
      Printf.printf "leg %s wall_s=%.6f ops=%d\n" r.W.name
        (median (leg_walls reps r.W.name))
        r.W.ops)
    (List.hd reps).results;
  let heap_mb =
    float_of_int (!Leg.heap_peak_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let end_to_end =
    [
      ("setup_s", median setup_walls, "s", setup_walls);
      ("sim_insns_per_s", m (fun s -> float_of_int s.insns /. s.wall), "1/s",
       samples (fun s -> float_of_int s.insns /. s.wall));
      ("ops_per_s", m (fun s -> float_of_int s.ops /. s.wall), "1/s",
       samples (fun s -> float_of_int s.ops /. s.wall));
      ("cpu_s", m (fun s -> s.cpu), "s", samples (fun s -> s.cpu));
      ("heap_peak_mb", heap_mb, "MiB", [ heap_mb ]);
    ]
  in
  let metrics =
    if not o.traced then end_to_end
    else begin
      let insns = float_of_int (List.fold_left (fun n s -> n + s.insns) 0 reps) in
      let sum f = List.fold_left (fun a s -> a +. f s) 0.0 reps in
      let gc =
        [
          ("gc.minor_words_per_insn", ratio (sum (fun s -> s.minor_words)) insns, "words/insn");
          ("gc.promoted_words_per_insn", ratio (sum (fun s -> s.promoted_words)) insns, "words/insn");
          ("gc.major_words", m (fun s -> s.major_words), "words");
          ("gc.major_collections", m (fun s -> float_of_int s.major_collections), "count");
        ]
      in
      traced_pass o ~untraced:(m (fun s -> s.wall)) ~rep_digests ~warm_digests ~gc
      |> List.map (fun (n, v, u) -> (n, v, u, [ v ]))
    end
  in
  List.iter (fun (n, v, u, _) -> Printf.printf "metric %s %s %s\n" n (num v) u) metrics;
  Option.iter (fun f -> write_json f o ~setup_walls ~reps ~metrics) o.json;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, v, u, _) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (str n) (num v) (str u))
          metrics))

let () =
  match parse (List.tl (Array.to_list Sys.argv)) with
  | exception Bad_input msg ->
      Printf.eprintf "perf: %s\n%s\n" msg usage;
      exit 2
  | o -> run o
