(** One leg: a fresh kernel booted with one workload under one
    mechanism and driven until every task exits.  Every workload is
    made of legs.  A leg either goes through {!run}, which composes the
    kernel's public calls itself so the traced pass can hook its spans
    and counters in, or runs whole inside a library entry point
    ([Microbench_prog.run], [Divergence.run_audited]) and only hands
    its kernel to {!finish} at the end. *)

open Sim_kernel
module A = Sim_audit.Audit
module C = Sim_chaos.Chaos
module D = Harness.Divergence
module Hook = Lazypoline.Hook

(** The observation-only consumers a leg can attach. *)
type observer = Audit | Spans | Provenance | Metrics | Tracer | Policy

let all_observers = [ Audit; Spans; Provenance; Metrics; Tracer; Policy ]

let observer_name = function
  | Audit -> "audit"
  | Spans -> "spans"
  | Provenance -> "provenance"
  | Metrics -> "metrics"
  | Tracer -> "tracer"
  | Policy -> "policy"

(** Host-side switches, flipped only by the traced pass's ablation
    reruns. *)
let blocks = ref true

let icache = ref true
let observers_override : observer list option ref = ref None

(** [blocks] as the library entry points take it: [None] keeps the
    kernel's default. *)
let blocks_arg () = if !blocks then None else Some false

let attach (k : Types.kernel) observers =
  List.iter
    (function
      | Audit -> Kernel.attach_audit k (A.create ~checkpoint_every:64 ())
      | Spans -> D.attach_obs k (Sim_obs.Obs.create ~ncpus:1 ())
      | Provenance -> Kernel.attach_prov k (Sim_obs.Provenance.create ())
      | Metrics -> Kernel.attach_metrics k (Kmetrics.create ())
      | Tracer -> k.Types.tracer <- Some (Sim_trace.Tracer.create ~ncpus:1 ())
      | Policy -> Kernel.attach_policy k (Sim_policy.Policy.learner ()))
    observers

let max_slices = 40_000_000

(* Kernel.run_until_exit's loop, with a sample of its slices timed. *)
let drive_traced k =
  let slice () = Kernel.run_slice k in
  let rec go n =
    if Kernel.all_exited k || k.Types.halted then true
    else if n = 0 then false
    else begin
      Trace.slice slice;
      go (n - 1)
    end
  in
  Trace.span Trace.Run (fun () -> go max_slices)

(** What the traced pass counts, summed over every leg it runs. *)
type counters = {
  mutable mapped_pages : int;
  mutable code_mut : int;
  mutable syscalls : int;
  by_path : int array;  (** indexed by [Kmetrics.path_index] *)
  mutable signals : int;
  mutable rewrites : int;
  mutable audit_entries : int;
  mutable audit_checkpoints : int;
  mutable tracer_dropped : int;
  mutable injections : int;
}

let fresh_counters () =
  {
    mapped_pages = 0;
    code_mut = 0;
    syscalls = 0;
    by_path = Array.make 5 0;
    signals = 0;
    rewrites = 0;
    audit_entries = 0;
    audit_checkpoints = 0;
    tracer_dropped = 0;
    injections = 0;
  }

let counters = ref (fresh_counters ())

let count ?chaos (k : Types.kernel) =
  let c = !counters in
  Hashtbl.iter
    (fun _ (t : Types.task) ->
      c.mapped_pages <-
        c.mapped_pages + List.length (Sim_mem.Mem.mapped_pages t.Types.mem);
      c.code_mut <- c.code_mut + Sim_mem.Mem.code_mut_count t.Types.mem)
    k.Types.tasks;
  (match k.Types.metrics with
  | Some m ->
      c.syscalls <- c.syscalls + !(m.Kmetrics.syscalls_total);
      Array.iteri (fun i r -> c.by_path.(i) <- c.by_path.(i) + !r) m.Kmetrics.by_path;
      c.signals <- c.signals + !(m.Kmetrics.signal_deliveries);
      c.rewrites <-
        c.rewrites + !(m.Kmetrics.rewrites) + !(m.Kmetrics.sweep_sites)
  | None -> ());
  (match k.Types.auditor with
  | Some a ->
      c.audit_entries <- c.audit_entries + List.length (A.entries a);
      c.audit_checkpoints <- c.audit_checkpoints + List.length (A.checkpoints a)
  | None -> ());
  (match k.Types.tracer with
  | Some tr -> c.tracer_dropped <- c.tracer_dropped + Sim_trace.Tracer.dropped tr
  | None -> ());
  match chaos with
  | Some ch -> c.injections <- c.injections + C.count ch
  | None -> ()

(* The heap probe: on in the one untimed rep that measures the heap. *)
let heap_probe = ref false
let heap_peak_words = ref 0

(** The live heap after a full major collection, with [k] still
    reachable. *)
let probe_heap (k : Types.kernel) =
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity k);
  heap_peak_words := max !heap_peak_words live

(** What every leg does with its kernel once it has run: count it for
    the traced pass, and probe the heap when [probe] (default true)
    and the heap probe is on. *)
let finish ?chaos ?(probe = true) k =
  if !Trace.on then count ?chaos k;
  if probe && !heap_probe then probe_heap k

(** Time [f] as one leg, charged to [leg] in the trace; returns its
    value and its host seconds. *)
let timed ~leg f =
  Trace.set_leg leg;
  Buffer.clear Kernel.console;
  let t0 = Trace.now_ns () in
  let r = Trace.span Trace.Leg f in
  (r, float_of_int (Trace.now_ns () - t0) *. 1e-9)

type run = {
  k : Types.kernel;
  t : Types.task;  (** the first task *)
  finished : bool;  (** every task exited, or the machine halted *)
}

(** Run one leg, charged to [leg] in the trace: create a kernel, attach
    [observers], [spawn] the workload, [install] the mechanism with a
    pass-through hook, [start] any load generator, run to completion
    and hand the result to [check], whose value is returned. *)
let run ~leg ?(observers = []) ~spawn ~install ?(start = ignore) check =
  timed ~leg (fun () ->
      let k =
        Trace.span Trace.Kernel_create (fun () ->
            Kernel.create ?blocks:(blocks_arg ()) ~icache:!icache ())
      in
      let observers =
        match !observers_override with Some o -> o | None -> observers
      in
      let observers =
        if !Trace.on && not (List.mem Metrics observers) then
          observers @ [ Metrics ]
        else observers
      in
      Trace.span Trace.Attach (fun () -> attach k observers);
      let t = spawn k in
      let hook = Hook.dummy () in
      if !Trace.on then
        hook.Hook.on_syscall <- Trace.wrap1 Trace.Hook hook.Hook.on_syscall;
      Trace.span Trace.Install (fun () -> install k t hook);
      if !Trace.on then
        Hashtbl.filter_map_inplace
          (fun _ f -> Some (Trace.wrap2 Trace.Hypercall f))
          k.Types.hypercalls;
      start k;
      if !Trace.on then
        k.Types.actors <- List.map (Trace.wrap1 Trace.Actor) k.Types.actors;
      let finished =
        if !Trace.on then drive_traced k
        else Kernel.run_until_exit ~max_slices k
      in
      Trace.span Trace.Check (fun () ->
          finish k;
          check { k; t; finished }))
