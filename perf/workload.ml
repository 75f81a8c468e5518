(** The benchmark's five workloads.

    Each one builds its inputs from the seed and returns a rep: a fixed
    list of legs run in full.  [syscall-hot] and [chaos-sweep] run each
    leg whole inside the library entry point their CI and paper
    counterparts use; the others compose the kernel's public calls
    through {!Leg.run}.  A leg reports a summary of every
    simulated output it produced (its digest is the correctness
    oracle), the units of work it did, and the checks it failed.
    Simulated outputs are deterministic, so they never depend on host
    speed; only the host time to produce them does. *)

open Sim_kernel
module A = Sim_audit.Audit
module C = Sim_chaos.Chaos
module D = Harness.Divergence
module MB = Workloads.Microbench_prog
module Wrk = Workloads.Wrk

type result = {
  name : string;  (** [<workload>/<variant>] *)
  summary : string;  (** every simulated output of the leg *)
  ops : int;  (** units of the workload's own work *)
  runs : int;  (** checked operations *)
  failures : string list;  (** one message per failed operation *)
  wall : float;  (** host seconds *)
}

(** The host-side switches of {!Leg} that a workload's legs honour.
    The traced pass reports 0 for the ablations of the others. *)
type switch = Blocks | Icache | Observers

type t = {
  name : string;
  seeded : bool;
      (** its simulated outputs depend on the seed, so its committed
          digests are per seed *)
  switches : switch list;
  prepare : seed:int -> scale:float -> unit -> result list;
      (** build the inputs; the closure runs one rep *)
}

let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

let permute ~seed xs =
  let a = Array.of_list xs in
  Gen.shuffle (Random.State.make [| 0x6c656773; seed |]) a;
  Array.to_list a

let finished (r : Leg.run) =
  if r.Leg.finished then [] else [ "did not finish within the slice budget" ]

let exited (r : Leg.run) =
  let code = r.Leg.t.Types.exit_code in
  if code = 0 then [] else [ Printf.sprintf "exit code %d" code ]

(* A leg that raised is one failed operation, not a crashed benchmark. *)
let guard name f =
  try f ()
  with e ->
    {
      name;
      summary = "raised";
      ops = 0;
      runs = 1;
      failures = [ "raised " ^ Printexc.to_string e ];
      wall = 0.0;
    }

let leg_result name ((summary, ops, failures), wall) =
  { name; summary; ops; runs = 1; failures; wall }

(* ------------------------------------------------------------------ *)
(* syscall-hot: the Table II loop under the six mechanisms            *)

let hot_iters = 500_000
let hot_nr = 500

let mb_config = function
  | D.Raw -> MB.Native
  | D.Sud -> MB.Sud
  | D.Zpoline -> MB.Zpoline
  | D.Lazypoline_m -> MB.Lazypoline_full
  | D.Seccomp -> MB.Seccomp_user
  | D.Ptrace -> MB.Ptrace

(* Microbench_prog.run is what Table II runs: lazypoline's one syscall
   site is pre-rewritten, so the loop measures the steady-state fast
   path. *)
let hot_leg ~iters mech =
  let name = "syscall-hot/" ^ D.mech_name mech in
  guard name (fun () ->
      let cycles = ref 0L and code = ref 0 in
      let cpi, wall =
        Leg.timed ~leg:name (fun () ->
            Trace.span Trace.Microbench (fun () ->
                MB.run ~iters ~nr:hot_nr ~icache:!Leg.icache
                  ?blocks:(Leg.blocks_arg ())
                  ?metrics:(if !Trace.on then Some (Kmetrics.create ()) else None)
                  ~on_done:(fun k t ->
                    Leg.finish k;
                    cycles := Types.global_time k;
                    code := t.Types.exit_code)
                  (mb_config mech)))
      in
      {
        name;
        summary = Printf.sprintf "cycles_per_iter=%.4f cycles=%Ld" cpi !cycles;
        ops = iters;
        runs = 1;
        failures = (if !code = 0 then [] else [ Printf.sprintf "exit code %d" !code ]);
        wall;
      })

let syscall_hot =
  {
    name = "syscall-hot";
    seeded = false;
    switches = [ Blocks; Icache ];
    prepare =
      (fun ~seed ~scale ->
        let iters = scaled scale hot_iters in
        let mechs = permute ~seed D.all_mechs in
        fun () -> List.map (hot_leg ~iters) mechs);
  }

(* ------------------------------------------------------------------ *)
(* webserver and webserver-observed: the Fig. 5 server under wrk       *)

let web_conns = 16

(* The observers' own outputs, so a digest also covers what they
   recorded. *)
let observer_summary (k : Types.kernel) =
  String.concat ""
    [
      (match k.Types.auditor with
      | Some a -> Printf.sprintf " audit_events=%d audit_chain=%Lx" (A.app_count a) (A.chain a)
      | None -> "");
      (match k.Types.obs with
      | Some o -> Printf.sprintf " spans_completed=%d" (Sim_obs.Obs.completed_count o)
      | None -> "");
      (match k.Types.prov with
      | Some p -> Printf.sprintf " sites=%d" (Sim_obs.Provenance.distinct_sites p)
      | None -> "");
      (match k.Types.policy with
      | Some p -> Printf.sprintf " policy_checks=%d" p.Sim_policy.Policy.checks
      | None -> "");
    ]

let web_leg ~name ~observers ~size_kb ~requests mech =
  let w =
    D.Wrk
      { flavour = Workloads.Webserver.Nginx_like; size_kb; conns = web_conns; requests }
  in
  let gen = ref None in
  Leg.run ~leg:name ~observers
    ~spawn:(fun k -> Trace.span Trace.Boot (fun () -> D.workload_spawn k w))
    ~install:(D.install mech)
    ~start:(fun k ->
      Trace.span Trace.Boot (fun () ->
          Workloads.Webserver.wait_listening k ~port:D.wrk_port;
          gen :=
            Some
              (Wrk.attach ~max_requests:requests k ~port:D.wrk_port
                 ~conns:web_conns ~file:D.wrk_file ~file_size:(size_kb * 1024))))
    (fun r ->
      let g = Option.get !gen in
      let lat =
        List.map
          (fun (_, issued, done_) -> Int64.to_float (Int64.sub done_ issued))
          (Wrk.latencies g)
      in
      let pc = Sim_stats.Stats.percentile lat in
      ( Printf.sprintf "cycles=%Ld completed=%d errors=%d lat_p50=%.1f lat_p99=%.1f%s"
          (Types.global_time r.Leg.k) g.Wrk.completed g.Wrk.errors (pc 50.0)
          (pc 99.0) (observer_summary r.Leg.k),
        g.Wrk.completed,
        finished r
        @ (if g.Wrk.completed = requests then []
           else [ Printf.sprintf "%d of %d requests completed" g.Wrk.completed requests ])
        @
        if g.Wrk.errors = 0 then []
        else [ Printf.sprintf "%d client errors" g.Wrk.errors ] ))

let web_workload ~name ~observers ~mechs ~sizes_kb ~requests =
  {
    name;
    seeded = false;
    switches = [ Blocks; Icache; Observers ];
    prepare =
      (fun ~seed ~scale ->
        let requests = scaled scale requests in
        let legs =
          permute ~seed
            (List.concat_map (fun m -> List.map (fun s -> (m, s)) sizes_kb) mechs)
        in
        fun () ->
          List.map
            (fun (mech, size_kb) ->
              let name = Printf.sprintf "%s/%s/%dk" name (D.mech_name mech) size_kb in
              guard name (fun () ->
                  leg_result name
                    (web_leg ~name ~observers ~size_kb ~requests mech)))
            legs);
  }

(* 1 KiB and 64 KiB bodies separate per-request from per-byte cost. *)
let webserver =
  web_workload ~name:"webserver" ~observers:[] ~mechs:D.all_mechs
    ~sizes_kb:[ 1; 64 ] ~requests:3_500

let webserver_observed =
  web_workload ~name:"webserver-observed" ~observers:Leg.all_observers
    ~mechs:[ D.Raw; D.Lazypoline_m ] ~sizes_kb:[ 8 ] ~requests:5_000

(* ------------------------------------------------------------------ *)
(* compute: a seed-generated CPU-bound minicc program                  *)

let compute_iters = 2_700

let compute =
  {
    name = "compute";
    seeded = true;
    switches = [ Blocks; Icache; Observers ];
    prepare =
      (fun ~seed ~scale ->
        let p, src, expect =
          Trace.span Trace.Inputs (fun () ->
              let p = Gen.make ~seed ~iters:(scaled scale compute_iters) in
              (p, Gen.source p, Gen.checksum p))
        in
        let img =
          Trace.span Trace.Compile (fun () -> Minicc.Codegen.compile_to_image src)
        in
        let mechs = permute ~seed [ D.Raw; D.Lazypoline_m ] in
        fun () ->
          List.map
            (fun mech ->
              let name = "compute/" ^ D.mech_name mech in
              guard name (fun () ->
                  leg_result name
                    (Leg.run ~leg:name
                       ~spawn:(fun k ->
                         Trace.span Trace.Spawn (fun () -> Kernel.spawn k img))
                       ~install:(D.install mech)
                       (fun r ->
                         let out = Buffer.contents Kernel.console in
                         let sum =
                           if String.length out = 8 then
                             Some (String.get_int64_le out 0)
                           else None
                         in
                         ( Printf.sprintf "checksum=%s cycles=%Ld"
                             (match sum with
                             | Some s -> Printf.sprintf "%Lx" s
                             | None -> "none")
                             (Types.global_time r.Leg.k),
                           p.Gen.iters,
                           finished r @ exited r
                           @
                           if sum = Some expect then []
                           else
                             [
                               Printf.sprintf
                                 "wrong checksum: the host evaluation gives %Lx"
                                 expect;
                             ] )))))
            mechs);
  }

(* ------------------------------------------------------------------ *)
(* chaos-sweep: audited fuzz runs diffed against the same-seed raw run *)

(* The chaos seeds are fixed and the benchmark's seed only orders the
   runs, so every seed does the same simulated work.  A fuzz run's host
   cost follows the simulated time its injections add: the sigmicro
   legs of chaos seeds 30001-30100 took 10 % longer than those of
   20001-20100 at the same instruction count. *)
let chaos_seeds = List.init 100 (fun i -> Int64.of_int (10001 + i))

(* examples/jit_getpid.c, pinned here so the benchmark's input cannot
   move with the example: its getpid lives in JIT-published code. *)
let jit_getpid =
  {|long main() {
  char msg[32];
  msg[0] = 'p'; msg[1] = 'i'; msg[2] = 'd'; msg[3] = ':'; msg[4] = ' ';
  long pid = syscall(39);
  msg[5] = '0' + pid % 10;
  msg[6] = 10;
  syscall(1, 1, msg, 7);
  return 0;
}
|}

let chaos_programs =
  [
    ("sigmicro", D.Sigmicro { iters = 40 });
    ("jit_getpid", D.Prog { src = jit_getpid; jit = true });
  ]

(* One audited fuzz run: Harness.Chaos.run_fuzz's chaos engine and
   Harness.Divergence.run_audited call, made here because run_fuzz
   does not return the kernel, whose cycles and counts the leg reports.
   The traced pass cannot reach inside it. *)
let fuzz_run ?stop_after ~seed mech w =
  let ch = C.fuzz ~seed () in
  let a, k, _ =
    Trace.span Trace.Fuzz_run (fun () ->
        D.run_audited ?stop_after ~chaos:ch ?blocks:(Leg.blocks_arg ()) mech w)
  in
  (a, k, ch)

type chaos_acc = {
  c_name : string;
  mutable c_runs : int;
  mutable c_injections : int;
  mutable c_events : int;
  mutable c_cycles : int64;
  mutable c_failures : string list;
  mutable c_wall : float;
}

let chaos_sweep =
  {
    name = "chaos-sweep";
    seeded = false;
    switches = [ Blocks ];
    prepare =
      (fun ~seed ~scale ->
        let nseeds = scaled scale (List.length chaos_seeds) in
        let seeds = permute ~seed (List.filteri (fun i _ -> i < nseeds) chaos_seeds) in
        fun () ->
          let legs =
            List.concat_map
              (fun (p, _) ->
                List.map
                  (fun m ->
                    ( (p, m),
                      {
                        c_name = Printf.sprintf "chaos-sweep/%s/%s" p (D.mech_name m);
                        c_runs = 0;
                        c_injections = 0;
                        c_events = 0;
                        c_cycles = 0L;
                        c_failures = [];
                        c_wall = 0.0;
                      } ))
                  D.all_mechs)
              chaos_programs
          in
          List.iter
            (fun (p, w) ->
              List.iteri
                (fun i cs ->
                (* Raw comes first in all_mechs: its audit is the
                   baseline and bounds the interposed runs. *)
                let base = ref None in
                List.iter
                  (fun mech ->
                    let acc = List.assoc (p, mech) legs in
                    acc.c_runs <- acc.c_runs + 1;
                    let fail msg =
                      acc.c_failures <-
                        Printf.sprintf "chaos seed %Ld: %s" cs msg :: acc.c_failures
                    in
                    match
                      Leg.timed ~leg:acc.c_name (fun () ->
                          let a, k, ch =
                            fuzz_run
                              ?stop_after:(Option.map Harness.Chaos.bound_of !base)
                              ~seed:cs mech w
                          in
                          Trace.span Trace.Check (fun () ->
                              Leg.finish ~chaos:ch ~probe:(i = 0) k);
                          let div =
                            match !base with
                            | Some a0 when mech <> D.Raw ->
                                Trace.span Trace.Diff (fun () -> A.first_divergence a0 a)
                            | _ -> None
                          in
                          (a, k, C.count ch, div))
                    with
                    | exception e -> fail ("raised " ^ Printexc.to_string e)
                    | (a, k, injections, div), wall ->
                        if mech = D.Raw then base := Some a;
                        acc.c_injections <- acc.c_injections + injections;
                        acc.c_events <- acc.c_events + A.app_count a;
                        acc.c_cycles <- Int64.add acc.c_cycles (Types.global_time k);
                        acc.c_wall <- acc.c_wall +. wall;
                        if not (Kernel.all_exited k || k.Types.halted) then
                          fail "did not finish within the slice budget";
                        Option.iter
                          (fun (d : A.divergence) ->
                            fail
                              (Printf.sprintf "diverged from raw at tid %d app event %d: %s"
                                 d.A.d_tid (d.A.d_index + 1) d.A.d_reason))
                          div)
                  D.all_mechs)
                seeds)
            chaos_programs;
          List.map
            (fun (_, acc) ->
              {
                name = acc.c_name;
                summary =
                  Printf.sprintf "runs=%d injections=%d app_events=%d cycles=%Ld"
                    acc.c_runs acc.c_injections acc.c_events acc.c_cycles;
                ops = acc.c_runs;
                runs = acc.c_runs;
                failures = List.rev acc.c_failures;
                wall = acc.c_wall;
              })
            legs);
  }

let all = [ syscall_hot; webserver; webserver_observed; compute; chaos_sweep ]
