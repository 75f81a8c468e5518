(** Host clock and the span recorder of the traced pass.

    Spans are recorded only in the benchmark's own code, around its
    calls into each layer.  They are aggregated in memory per leg and
    span kind — the hot kinds (one per hypercall, hook call and actor
    step) occur millions of times per rep — and written out when the
    benchmark ends.  A span's self time is its duration minus the time
    its child spans cover, so the self times of a leg's spans add up
    to the leg's wall time by construction.  The catch-all spans
    ([kernel.run], and the library entry points run whole) hold guest
    execution too; only the ablation reruns split that further.  The
    clock reads of a hot span fall partly outside it, into its
    parent's self time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type kind =
  | Leg
  | Inputs
  | Kernel_create
  | Attach
  | Compile
  | Spawn
  | Boot
  | Install
  | Run
  | Microbench
  | Fuzz_run
  | Hypercall
  | Hook
  | Actor
  | Diff
  | Check

let kinds =
  [|
    Leg; Inputs; Kernel_create; Attach; Compile; Spawn; Boot; Install; Run;
    Microbench; Fuzz_run; Hypercall; Hook; Actor; Diff; Check;
  |]

let index = function
  | Leg -> 0
  | Inputs -> 1
  | Kernel_create -> 2
  | Attach -> 3
  | Compile -> 4
  | Spawn -> 5
  | Boot -> 6
  | Install -> 7
  | Run -> 8
  | Microbench -> 9
  | Fuzz_run -> 10
  | Hypercall -> 11
  | Hook -> 12
  | Actor -> 13
  | Diff -> 14
  | Check -> 15

(** Span names carry their layer as the prefix. *)
let name = function
  | Leg -> "leg"
  | Inputs -> "setup.inputs"
  | Kernel_create -> "setup.kernel_create"
  | Attach -> "observer.attach"
  | Compile -> "setup.compile"
  | Spawn -> "setup.spawn"
  | Boot -> "setup.boot"
  | Install -> "interposer.install"
  | Run -> "kernel.run"
  | Microbench -> "workloads.microbench_run"
  | Fuzz_run -> "harness.fuzz_run"
  | Hypercall -> "interposer.hypercall"
  | Hook -> "interposer.hook"
  | Actor -> "wrk.actor"
  | Diff -> "harness.diff"
  | Check -> "oracle.check"

type agg = {
  mutable count : int;
  mutable total : int;  (** ns *)
  mutable self : int;  (** ns *)
  mutable first : int;  (** start of the first occurrence, ns *)
  mutable last : int;  (** end of the last occurrence, ns *)
  mutable parent : int;  (** kind index of the enclosing span, -1 at the root *)
}

type leg = { leg_id : int; leg_name : string; aggs : agg array }

(** Whether the current pass is traced.  Off, every probe below is a
    plain call. *)
let on = ref false

let legs : leg list ref = ref []
let origin = ref 0

let fresh_aggs () =
  Array.init (Array.length kinds) (fun _ ->
      { count = 0; total = 0; self = 0; first = 0; last = 0; parent = -1 })

let current = ref { leg_id = -1; leg_name = ""; aggs = fresh_aggs () }

(** Make [name] the leg that following spans are charged to, creating
    it on first use (a chaos leg is entered once per fuzz seed). *)
let set_leg name =
  match List.find_opt (fun l -> l.leg_name = name) !legs with
  | Some l -> current := l
  | None ->
      let l = { leg_id = List.length !legs; leg_name = name; aggs = fresh_aggs () } in
      legs := l :: !legs;
      current := l

(* The span stack, preallocated so entering a span does not allocate. *)
let max_depth = 16
let st_kind = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let depth = ref 0

let enter k =
  let d = !depth in
  st_kind.(d) <- index k;
  st_child.(d) <- 0;
  depth := d + 1;
  st_start.(d) <- now_ns ()

let leave () =
  let t = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let dur = t - st_start.(d) in
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  let a = !current.aggs.(st_kind.(d)) in
  if a.count = 0 then begin
    a.first <- st_start.(d);
    a.parent <- (if d > 0 then st_kind.(d - 1) else -1)
  end;
  a.count <- a.count + 1;
  a.total <- a.total + dur;
  a.self <- a.self + dur - st_child.(d);
  a.last <- t

(** [span k f] runs [f], recorded as a span of kind [k] when tracing. *)
let span k f =
  if not !on then f ()
  else begin
    enter k;
    match f () with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e
  end

(** Wrap a hot callback so each call is a span of kind [k]. *)
let wrap1 k f x =
  enter k;
  match f x with
  | r ->
      leave ();
      r
  | exception e ->
      leave ();
      raise e

let wrap2 k f x y =
  enter k;
  match f x y with
  | r ->
      leave ();
      r
  | exception e ->
      leave ();
      raise e

(* Scheduling slices are too short and too many to be spans: one in
   [sample_every] is timed, into a fixed-size reservoir (Algorithm R
   with a fixed seed) so a rep of millions of slices keeps bounded
   memory. *)
let sample_every = 8
let reservoir_size = 65536
let reservoir = Array.make reservoir_size 0
let slices = ref 0
let sampled = ref 0
let rng = Random.State.make [| 0x736c6963 |]

let note_slice ns =
  let n = !sampled in
  if n < reservoir_size then reservoir.(n) <- ns
  else begin
    let j = Random.State.int rng (n + 1) in
    if j < reservoir_size then reservoir.(j) <- ns
  end;
  sampled := n + 1

(** Run one slice, timing it if it is one of the sampled ones. *)
let slice run =
  let n = !slices in
  slices := n + 1;
  if n mod sample_every <> 0 then run ()
  else begin
    let t0 = now_ns () in
    run ();
    note_slice (now_ns () - t0)
  end

let slice_samples_us () =
  List.init (min !sampled reservoir_size) (fun i ->
      float_of_int reservoir.(i) /. 1e3)

let start () =
  on := true;
  legs := [];
  slices := 0;
  sampled := 0;
  depth := 0;
  origin := now_ns ()

let stop () = on := false
let all_legs () = List.rev !legs

(** Total and self seconds of kind [k], summed over every leg. *)
let totals k =
  List.fold_left
    (fun (t, s) l ->
      let a = l.aggs.(index k) in
      (t +. (float_of_int a.total *. 1e-9), s +. (float_of_int a.self *. 1e-9)))
    (0.0, 0.0) !legs

let count k = List.fold_left (fun n l -> n + l.aggs.(index k).count) 0 !legs

(** One JSON object per (leg, span kind) that occurred. *)
let write_spans path =
  let oc = open_out path in
  let s ns = float_of_int (ns - !origin) *. 1e-9 in
  List.iter
    (fun l ->
      Array.iteri
        (fun i a ->
          if a.count > 0 then
            Printf.fprintf oc
              "{\"leg\": %d, \"leg_name\": \"%s\", \"name\": \"%s\", \
               \"parent\": %s, \"start_s\": %.9f, \"end_s\": %.9f, \"count\": \
               %d, \"total_s\": %.9f, \"self_s\": %.9f}\n"
              l.leg_id l.leg_name (name kinds.(i))
              (if a.parent < 0 then "null"
               else Printf.sprintf "\"%s\"" (name kinds.(a.parent)))
              (s a.first) (s a.last) a.count
              (float_of_int a.total *. 1e-9)
              (float_of_int a.self *. 1e-9))
        l.aggs)
    (all_legs ());
  close_out oc
