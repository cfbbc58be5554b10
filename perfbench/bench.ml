(* The repository's seeded benchmark: one workload per invocation, inputs
   generated from --seed, outputs checked, and one JSON result line.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
   alternates untraced and traced operations, reports the per-layer
   metrics (read from the program's own Run_stats counters and from the
   spans this file records around each call into the engine), and writes
   the spans to perfbench/traces/.  README.md defines every metric. *)

module D = Dcdatalog
module Rng = Dcd_util.Rng
module Vec = Dcd_util.Vec
module Serve = Dcd_serve.Serve
module RS = D.Run_stats

let workload = ref ""
let seed = ref 0
let seconds = ref 10.
let traced_run = ref false

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME tc-rmat | cc-arabic | triangle-orkut | serve-tc");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Int (fun t -> traced_run := t <> 0), "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

(* One worker per hardware thread: the engine and the load generator
   both size themselves to the machine. *)
let cores = Domain.recommended_domain_count ()
let workers = cores
let config = { D.default_config with D.workers }

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* spans                                                               *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let spans = ref []
let span_lock = Mutex.create ()
let next_span = Atomic.make 1
let current_span = Domain.DLS.new_key (fun () -> 0)

(* monotonic seconds at nanosecond resolution: single reads take about a
   microsecond, below the resolution of the wall clock *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [timed ~trace name f] runs [f] and returns its result and wall time;
   with [trace] it also records a span, parented to the enclosing span
   of the same domain. *)
let timed ~trace name f =
  if not trace then begin
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    let id = Atomic.fetch_and_add next_span 1 in
    let parent = Domain.DLS.get current_span in
    Domain.DLS.set current_span id;
    let t0 = now () in
    let r = Fun.protect ~finally:(fun () -> Domain.DLS.set current_span parent) f in
    let t1 = now () in
    Mutex.protect span_lock (fun () -> spans := { id; parent; name; t0; t1 } :: !spans);
    (r, t1 -. t0)
  end

let write_spans () =
  let dir = Filename.concat "perfbench" "traces" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.json" !workload !seed) in
  let oc = open_out path in
  let all = List.sort (fun a b -> compare a.id b.id) !spans in
  let base = match all with s :: _ -> s.t0 | [] -> 0. in
  Printf.fprintf oc
    "{\"workload\": %S, \"seed\": %d, \"cores\": %d, \"workers\": %d, \"spans\": [\n"
    !workload !seed cores workers;
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"id\": %d, \"parent\": %d, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}"
        (if i = 0 then "" else ",\n")
        s.id s.parent s.name (s.t0 -. base) (s.t1 -. base))
    all;
  output_string oc "\n]}\n";
  close_out oc;
  Printf.eprintf "perfbench: %d spans written to %s\n" (List.length all) path

(* ------------------------------------------------------------------ *)
(* output                                                              *)

let fnum v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields) ^ "}"

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* the largest the major heap has been in this process *)
let top_heap_mb () = mb (Gc.quick_stat ()).Gc.top_heap_words

(* what the state still referenced occupies, after a full collection *)
let live_heap_mb () =
  Gc.full_major ();
  mb (Gc.stat ()).Gc.live_words

(* Prints the detail line (everything measured, plus the run's identity)
   and then the result line, the last line of standard output.  A failed
   check makes the exit code nonzero. *)
let finish ~attempted ~failed ~metrics ~detail =
  let failed_frac = float_of_int failed /. float_of_int (max 1 attempted) in
  let ident =
    [
      ("workload", Printf.sprintf "%S" !workload); ("seed", string_of_int !seed);
      ("cores", string_of_int cores); ("workers", string_of_int workers);
      ("seconds", fnum !seconds); ("trace", string_of_bool !traced_run);
      ("failed_frac", fnum failed_frac);
    ]
  in
  print_endline
    (json_obj [ ("detail", json_obj (ident @ List.map (fun (k, v) -> (k, fnum v)) detail)) ]);
  let metric (name, value, unit) =
    (name, json_obj [ ("value", fnum value); ("unit", Printf.sprintf "%S" unit) ])
  in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (failed = 0)); ("attempted", string_of_int attempted);
         ("failed", string_of_int failed); ("metrics", json_obj (List.map metric metrics));
       ]);
  if !traced_run then write_spans ();
  exit (if failed = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* helpers                                                             *)

let prepare ~trace (spec : D.Queries.spec) =
  let p, secs =
    timed ~trace "frontend.prepare" (fun () ->
        D.prepare ~params:spec.default_params spec.source)
  in
  match p with Ok p -> (p, secs) | Error e -> fail "%s: %s" spec.name e

(* [prepare] takes tens of microseconds: each sample times a group, and
   the one-shot workloads take a few samples before every run, so the
   set-up figure is spread over the whole window like the runs are *)
let prepare_group = 20
let prepare_samples = 10

let time_prepare ~trace spec =
  List.init prepare_samples (fun _ ->
      let _, secs =
        timed ~trace "frontend.prepare_group" (fun () ->
            for _ = 1 to prepare_group do
              ignore (prepare ~trace:false spec)
            done)
      in
      secs /. float_of_int prepare_group)

let fingerprint_rel rel =
  let fp = ref Stats.empty in
  D.Relation.iter (fun t -> fp := Stats.add !fp t) rel;
  !fp

let fingerprint_result (result : D.Parallel.result) name =
  match D.Catalog.find result.D.Parallel.catalog name with
  | Some rel -> fingerprint_rel rel
  | None -> Stats.empty

let edges_of g = Vec.to_list (D.Graph.edges g) |> List.map (fun (u, v, _) -> (u, v))

let median_or_zero = function [] -> 0. | xs -> Stats.median xs
let ratio a b = if b = 0. then 0. else a /. b
let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

(* Engine-layer figures of one run, from its Run_stats. *)
let layer_metrics ~wall ~output (stats : RS.t) =
  let strata = stats.RS.strata in
  let per_worker f = fsum (fun (s : RS.stratum) -> Array.fold_left (fun a w -> a +. f w) 0. s.RS.workers) strata in
  let busy = per_worker (fun w -> w.RS.busy_time) in
  let wait = per_worker (fun w -> w.RS.wait_time) in
  let merge = per_worker (fun w -> w.RS.merge_time) in
  let setup = fsum (fun (s : RS.stratum) -> s.RS.setup) strata in
  let materialize = fsum (fun (s : RS.stratum) -> s.RS.materialize) strata in
  let worker_s =
    fsum (fun (s : RS.stratum) -> s.RS.evaluate *. float_of_int (Array.length s.RS.workers)) strata
  in
  let count f = float_of_int (RS.sum_strata stats f) in
  let processed = count (fun w -> w.RS.tuples_processed) in
  let sent = float_of_int (RS.total_sent stats) in
  let merged = float_of_int (RS.total_merged stats) in
  let dups = float_of_int (RS.total_dup_dropped stats) in
  let hits = float_of_int (RS.total_cache_hits stats) in
  let misses = float_of_int (RS.total_cache_misses stats) in
  let output = float_of_int output in
  let attributed = setup +. materialize +. ((busy +. wait +. merge) /. float_of_int workers) in
  [
    ("parallel.stratum_setup_s", setup);
    ("parallel.materialize_s", materialize);
    ("parallel.unattributed_s", worker_s -. busy -. wait -. merge);
    ("kernel.busy_s", busy);
    ("kernel.tuples_processed", processed);
    ("kernel.output_per_processed", ratio output processed);
    ("exchange.tuples_sent", sent);
    ("exchange.batches", float_of_int (RS.total_batches stats));
    ("exchange.words_per_tuple", ratio (float_of_int (RS.total_words stats)) sent);
    ("exchange.output_per_sent", ratio output sent);
    ("merge.merge_s", merge);
    ("merge.merged", merged);
    ("merge.dup_share", ratio dups (merged +. dups));
    ("exist_cache.hit_ratio", ratio hits (hits +. misses));
    ("strategy.wait_s", wait);
    ("strategy.wait_share", ratio wait worker_s);
    ("strategy.local_iterations", count (fun w -> w.RS.iterations));
    ("strategy.global_iterations", float_of_int (RS.total_iterations stats));
    ("steal.steals", float_of_int (RS.total_steals stats));
    ("steal.stolen_tuples", float_of_int (RS.total_stolen_tuples stats));
    ("steal.busy_imbalance", RS.busy_imbalance stats);
    ("attribution.share", ratio attributed wall);
  ]

(* Per-layer metrics and their units, in output order; a layer the
   workload does not exercise reports 0. *)
let layers =
  [
    ("frontend.prepare_s", "s"); ("engine.fixpoint_s", "s"); ("reference.closure_s", "s");
    ("parallel.stratum_setup_s", "s");
    ("parallel.materialize_s", "s"); ("parallel.unattributed_s", "s"); ("kernel.busy_s", "s");
    ("kernel.tuples_processed", "count"); ("kernel.output_per_processed", "ratio");
    ("exchange.tuples_sent", "count"); ("exchange.batches", "count");
    ("exchange.words_per_tuple", "ratio"); ("exchange.output_per_sent", "ratio");
    ("merge.merge_s", "s"); ("merge.merged", "count"); ("merge.dup_share", "ratio");
    ("exist_cache.hit_ratio", "ratio"); ("strategy.wait_s", "s"); ("strategy.wait_share", "ratio");
    ("strategy.local_iterations", "count"); ("strategy.global_iterations", "count");
    ("steal.steals", "count"); ("steal.stolen_tuples", "count"); ("steal.busy_imbalance", "ratio");
    ("gc.minor_words_per_sent", "ratio"); ("gc.major_collections", "count");
    ("gc.live_heap_mb", "MB"); ("gc.top_heap_mb", "MB");
    ("maintain.small_s", "s"); ("maintain.bulk_s", "s"); ("maintain.join_s", "s");
    ("maintain.overdeleted", "count"); ("maintain.rederive_ratio", "ratio");
    ("maintain.derived_per_base", "ratio"); ("maintain.steals", "count");
    ("maintain.vs_recompute", "ratio"); ("session.publish_s", "s"); ("session.lookup_us", "us");
    ("session.scan_us", "us"); ("session.scan_rows", "count"); ("serve.handle_overhead_us", "us");
    ("serve.batch_p50_ms", "ms"); ("serve.batch_tail_ms", "ms"); ("serve.batch_tail_pct", "%");
    ("serve.bulk_batch_ms", "ms"); ("serve.read_p50_us", "us"); ("serve.read_tail_us", "us");
    ("serve.read_tail_pct", "%"); ("serve.reads_per_s", "1/s"); ("attribution.share", "ratio");
    ("trace.overhead_share", "ratio"); ("run.failed_frac", "ratio");
  ]

let layer_result values =
  List.map
    (fun (name, unit) -> (name, Option.value ~default:0. (List.assoc_opt name values), unit))
    layers

(* Medians, per metric, over the traced samples' metric lists. *)
let median_metrics samples =
  match samples with
  | [] -> []
  | first :: _ ->
    List.map (fun (k, _) -> (k, Stats.median (List.map (List.assoc k) samples))) first

(* ------------------------------------------------------------------ *)
(* independent reference answers                                       *)

let adjacency n edges =
  let adj = Array.make n [] in
  List.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) edges;
  Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) adj

(* tc(X, Y) for the sources X = first, first + step, ...: Y reachable from
   X in one or more steps — a BFS per source, in the scratch arrays
   [seen] and [queue].  The loop does not allocate, so its time does not
   depend on the state of the heap it runs beside. *)
let closure_stripe adj (seen, queue) ~first ~step =
  let n = Array.length adj in
  Array.fill seen 0 n (-1);
  let count = ref 0 and sum = ref 0 in
  let src = ref first in
  while !src < n do
    let s = !src in
    let head = ref 0 and tail = ref 0 in
    let visit u =
      let next = adj.(u) in
      for k = 0 to Array.length next - 1 do
        let v = next.(k) in
        if seen.(v) <> s then begin
          seen.(v) <- s;
          queue.(!tail) <- v;
          incr tail
        end
      done
    in
    visit s;
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      incr count;
      sum := !sum + Stats.hash_pair s u;
      visit u
    done;
    src := s + step
  done;
  { Stats.count = !count; sum = !sum }

let scratch n ~domains = Array.init domains (fun _ -> (Array.make n (-1), Array.make n 0))

(* the whole closure, one stripe of sources and one domain per scratch *)
let closure adj scratch =
  let domains = Array.length scratch in
  let stripe first = closure_stripe adj scratch.(first) ~first ~step:domains in
  let others = List.init (domains - 1) (fun d -> Domain.spawn (fun () -> stripe (d + 1))) in
  List.fold_left (fun fp d -> Stats.union fp (Domain.join d)) (stripe 0) others

let reference_tc n edges = closure (adjacency n edges) (scratch n ~domains:1)

(* cc(Y, L) on a symmetric arc relation: L is the smallest vertex of Y's
   component, for every Y with an arc — union-find *)
let reference_cc n edges =
  let parent = Array.init n (fun i -> i) in
  let rec find x = if parent.(x) = x then x else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  let has_arc = Array.make n false in
  List.iter
    (fun (u, v) ->
      has_arc.(u) <- true;
      has_arc.(v) <- true;
      let ru = find u and rv = find v in
      if ru <> rv then parent.(max ru rv) <- min ru rv)
    edges;
  let fp = ref Stats.empty in
  for v = 0 to n - 1 do
    if has_arc.(v) then fp := Stats.add !fp [| v; find v |]
  done;
  !fp

(* tri(X, Y, Z): arcs X->Y, Y->Z and X->Z with X < Y < Z — intersect the
   ascending out-neighbour lists of X and Y *)
let reference_triangles n edges =
  let hi = adjacency n (List.filter (fun (u, v) -> u < v) edges) in
  let fp = ref Stats.empty in
  for x = 0 to n - 1 do
    let hx = hi.(x) in
    Array.iter
      (fun y ->
        let hy = hi.(y) in
        let i = ref 0 and j = ref 0 in
        while !i < Array.length hx && !j < Array.length hy do
          let a = hx.(!i) and b = hy.(!j) in
          if a < b then incr i
          else if b < a then incr j
          else begin
            fp := Stats.add !fp [| x; y; a |];
            incr i;
            incr j
          end
        done)
      hx
  done;
  !fp

(* ------------------------------------------------------------------ *)
(* reference speed                                                     *)

(* The host's speed drifts by tens of percent over minutes, and such a
   drift moves every timing of a run together (README.md, Steadiness).
   So the gated figure is a ratio: the measured operations' time over
   the time of a fixed computation of this file, timed between them in
   the same process.  That computation is [closure] of one fixed
   RMAT-800 graph on [workers] domains, the same for every seed; the
   program does not run in it, so a change to the program moves only
   the numerator. *)
let reference =
  lazy
    (let g = D.Gen.rmat ~seed:1 ~scale:10 ~edges:8000 () in
     let n = D.Graph.n g and edges = edges_of g in
     (adjacency n edges, scratch n ~domains:workers, reference_tc n edges))

(* one timed reference closure; its answer is checked *)
let reference_time () =
  let adj, scratch, answer = Lazy.force reference in
  let fp, secs = timed ~trace:false "reference.closure" (fun () -> closure adj scratch) in
  if fp <> answer then
    fail "reference closure: %s, expected %s" (Stats.to_string fp) (Stats.to_string answer);
  secs

(* Reference closures are timed between one-shot runs, with the
   previous run's result collected, for this share of the previous run's
   time (at least three).  The host's speed also changes within seconds,
   so each run is compared with the closures on either side of it. *)
let reference_share = 0.2

let reference_times ~budget =
  let rec go acc spent k =
    if spent >= budget && k >= 3 then acc
    else
      let t = reference_time () in
      go (t :: acc) (spent +. t) (k + 1)
  in
  go [] 0. 0

(* ------------------------------------------------------------------ *)
(* one-shot workloads                                                  *)

(* One warm-up run, then runs until --seconds have passed (at least
   three untraced).  [fixpoint_vs_ref] is the median over the untraced
   runs of the run's time over the interquartile mean of the reference
   closures just before and just after it. *)
let oneshot ~(spec : D.Queries.spec) ~input =
  let trace = !traced_run in
  let edb, reference = input () in
  let prepared, _ = prepare ~trace:false spec in
  let attempted = ref 0 and failed = ref 0 in
  let run_checked ~trace =
    let result, secs = timed ~trace "engine.run" (fun () -> D.run prepared ~edb ~config ()) in
    incr attempted;
    let fp = fingerprint_result result spec.output in
    if fp <> reference then begin
      incr failed;
      Printf.eprintf "perfbench: %s output %s, expected %s\n" spec.name (Stats.to_string fp)
        (Stats.to_string reference)
    end;
    (result, secs, fp)
  in
  let _, warm_s, _ = run_checked ~trace:false in
  let deadline = now () +. !seconds in
  let setup_samples = ref [] and plain = ref [] and traced = ref [] and layers = ref [] in
  (* newest first: the reference closures before a run, and the run's
     time if it was untraced *)
  let windows = ref [] in
  let i = ref 0 and last = ref None and last_secs = ref warm_s in
  let references () =
    last := None;
    Gc.full_major ();
    reference_times ~budget:(reference_share *. !last_secs)
  in
  while now () < deadline || List.length !plain < 3 do
    let before = references () in
    setup_samples := time_prepare ~trace spec @ !setup_samples;
    (* every other run is traced in a traced invocation *)
    let trace = trace && !i land 1 = 1 in
    incr i;
    let gc0 = Gc.stat () in
    let result, secs, fp = run_checked ~trace in
    let gc1 = Gc.stat () in
    last := Some result;
    last_secs := secs;
    if trace then begin
      traced := secs :: !traced;
      let stats = result.D.Parallel.stats in
      let sent = float_of_int (RS.total_sent stats) in
      layers :=
        (("gc.minor_words_per_sent", ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) sent)
        :: ("gc.major_collections",
            float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))
        :: layer_metrics ~wall:secs ~output:fp.Stats.count stats)
        :: !layers
    end
    else plain := secs :: !plain;
    windows := (before, if trace then None else Some secs) :: !windows
  done;
  (* input, reference and the last fixpoint are still referenced *)
  let live = live_heap_mb () in
  ignore (Sys.opaque_identity !last);
  let top = top_heap_mb () in
  let final = references () in
  let rec pair after = function
    | [] -> []
    | (before, run) :: older ->
      let rest = pair before older in
      (match run with Some secs -> (secs /. Stats.mid_mean (before @ after)) :: rest | None -> rest)
  in
  let fixpoint_vs_ref = Stats.median (pair final !windows) in
  let all_references = final @ List.concat_map fst !windows in
  let setup_s = Stats.median !setup_samples in
  let fixpoint_s = Stats.median !plain in
  let reference_s = Stats.mid_mean all_references in
  let q1, _, q3 = Stats.quartiles !plain in
  let detail =
    [
      ("setup_s", setup_s); ("fixpoint_vs_ref", fixpoint_vs_ref); ("fixpoint_s", fixpoint_s);
      ("fixpoint_q1_s", q1); ("fixpoint_q3_s", q3); ("reference_s", reference_s);
      ("fixpoint_runs", float_of_int (List.length !plain));
      ("reference_runs", float_of_int (List.length all_references));
      ("live_heap_mb", live); ("top_heap_mb", top);
      ("output_tuples", float_of_int reference.Stats.count);
    ]
  in
  let metrics =
    if not !traced_run then
      [ ("setup_s", setup_s, "s"); ("fixpoint_vs_ref", fixpoint_vs_ref, "ratio") ]
    else
      layer_result
        ((("frontend.prepare_s", setup_s)
         :: ("engine.fixpoint_s", fixpoint_s) :: ("reference.closure_s", reference_s)
         :: ("gc.live_heap_mb", live) :: ("gc.top_heap_mb", top)
         :: ("trace.overhead_share", ratio (Stats.median !traced) fixpoint_s -. 1.)
         :: ("run.failed_frac", ratio (float_of_int !failed) (float_of_int !attempted))
         :: median_metrics !layers))
  in
  finish ~attempted:!attempted ~failed:!failed ~metrics ~detail

(* Graph parameters are those of the named stand-in datasets
   (Dcdatalog.Datasets); the seed replaces the dataset's fixed one. *)
let graph_seed salt = Rng.int (Rng.create ((!seed * 1_000_003) + salt)) (1 lsl 30)

let tc_rmat () =
  (* RMAT-800 as Datasets.rmat builds it: 1024 vertices, 8000 arcs *)
  oneshot ~spec:D.Queries.tc ~input:(fun () ->
      let g = D.Gen.rmat ~seed:(graph_seed 1) ~scale:10 ~edges:8000 () in
      (D.Queries.arc_edb g, reference_tc (D.Graph.n g) (edges_of g)))

let cc_arabic () =
  (* arabic-sim: 2^15 vertices, 640k arcs, symmetrized *)
  oneshot ~spec:D.Queries.cc ~input:(fun () ->
      let g = D.Gen.rmat ~seed:(graph_seed 2) ~scale:15 ~edges:640_000 () in
      (D.Queries.arc_sym_edb g, reference_cc (D.Graph.n g) (edges_of g)))

let triangle_orkut () =
  (* orkut-sim: 2^12 vertices, 117k arcs, as the CLI loads it (directed) *)
  oneshot ~spec:D.Queries.triangle ~input:(fun () ->
      let g = D.Gen.rmat ~seed:(graph_seed 3) ~scale:12 ~edges:117_000 () in
      (D.Queries.arc_edb g, reference_triangles (D.Graph.n g) (edges_of g)))

(* ------------------------------------------------------------------ *)
(* serve-tc                                                            *)

(* Update batches are drawn against the initial EDB, and each small one
   is followed by its inverse, so the EDB returns to its initial state
   after every pair.  A batch of [k] arcs deletes [k/2] present arcs and
   inserts [k/2] absent ones. *)
let small_arcs = 20
let bulk_arcs = 2000

(* Small batch pairs per session.  A fixed count matters because
   maintenance slows down with the number of batches applied (see
   README.md). *)
let small_pairs = 25

let draw_batch rng ~present ~arcs ~n k =
  let k = k / 2 in
  let arcs = Array.copy arcs in
  for i = 0 to k - 1 do
    let j = i + Rng.int rng (Array.length arcs - i) in
    let t = arcs.(i) in
    arcs.(i) <- arcs.(j);
    arcs.(j) <- t
  done;
  let dels = Array.to_list (Array.sub arcs 0 k) in
  let chosen = Hashtbl.create k in
  let ins = ref [] in
  while Hashtbl.length chosen < k do
    let e = (Rng.int rng n, Rng.int rng n) in
    if fst e <> snd e && (not (Hashtbl.mem present e)) && not (Hashtbl.mem chosen e) then begin
      Hashtbl.replace chosen e ();
      ins := e :: !ins
    end
  done;
  (dels, !ins)

let update_line ~dels ~ins =
  let atom sign (a, b) = Printf.sprintf "%carc(%d,%d)" sign a b in
  String.concat " " ("update" :: (List.map (atom '-') dels @ List.map (atom '+') ins))

(* Latency samples for a loop that may run millions of times: when the
   buffer fills, every other sample is dropped and the sampling stride
   doubles, so the kept samples stay spread evenly over the run. *)
type sampler = { buf : Float.Array.t; mutable len : int; mutable stride : int; mutable tick : int }

let sampler () = { buf = Float.Array.create (1 lsl 17); len = 0; stride = 1; tick = 0 }

let record s x =
  s.tick <- s.tick + 1;
  if s.tick >= s.stride then begin
    s.tick <- 0;
    if s.len = Float.Array.length s.buf then begin
      for i = 0 to (s.len / 2) - 1 do
        Float.Array.set s.buf i (Float.Array.get s.buf ((2 * i) + 1))
      done;
      s.len <- s.len / 2;
      s.stride <- s.stride * 2
    end;
    Float.Array.set s.buf s.len x;
    s.len <- s.len + 1
  end

let samples s = List.init s.len (Float.Array.get s.buf)

(* zipf(1.2), the exponent Gen.zipf uses, over the vertices; ranks
   shuffled so the hot keys are spread over the id space *)
let zipf_sampler rng n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) 1.2);
    cdf.(i) <- !acc
  done;
  let ids = Array.init n (fun i -> i) in
  Rng.shuffle rng ids;
  fun rng ->
    let r = Rng.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < r then lo := mid + 1 else hi := mid
    done;
    ids.(!lo)

type reads = {
  plain : sampler; (* untraced Serve.handle calls, us *)
  traced_reads : sampler; (* traced Serve.handle calls, us *)
  direct_lookup : sampler; (* traced Session.lookup, us *)
  direct_scan : sampler; (* traced Session.scan, us *)
  overhead : sampler; (* Serve.handle minus the direct call on the same key, us *)
  mutable ops : int;
  mutable bad : int;
  mutable scans : int;
  mutable scan_rows : int;
}

(* The closed-loop reader: zipf-keyed lookup tc(a,b) (90%) and scan tc(a)
   (10%) through Serve.handle until [stop].  Every reply must be ok with
   a version no lower than the last one seen, and a scan must carry the
   rows it announces.  In a traced run every 64th request is traced and
   then repeated as a direct Session call. *)
let reader session ~n ~rng ~stop ~trace =
  let key = zipf_sampler rng n in
  let r =
    {
      plain = sampler (); traced_reads = sampler (); direct_lookup = sampler ();
      direct_scan = sampler (); overhead = sampler (); ops = 0; bad = 0; scans = 0; scan_rows = 0;
    }
  in
  let last = ref 0 in
  while not (Atomic.get stop) do
    let a = key rng and is_scan = Rng.int rng 10 = 0 in
    let b = key rng in
    let line =
      if is_scan then Printf.sprintf "scan tc(%d)" a else Printf.sprintf "lookup tc(%d,%d)" a b
    in
    let trace = trace && r.ops land 63 = 1 in
    let reply, secs = timed ~trace "serve.handle" (fun () -> Serve.handle session line) in
    r.ops <- r.ops + 1;
    let us = secs *. 1e6 in
    let version, rows =
      match reply with
      | first :: rest ->
        if is_scan then
          ( Scanf.sscanf_opt first "ok version=%d count=%d%!" (fun v c ->
                if c = List.length rest then v else -1),
            List.length rest )
        else (Scanf.sscanf_opt first "ok version=%d present=%_s%!" (fun v -> v), 0)
      | [] -> (None, 0)
    in
    (match version with
     | Some v when v >= !last -> last := v
     | _ -> r.bad <- r.bad + 1);
    if is_scan then begin
      r.scans <- r.scans + 1;
      r.scan_rows <- r.scan_rows + rows
    end;
    if trace then begin
      record r.traced_reads us;
      let _, direct =
        if is_scan then
          timed ~trace "session.scan" (fun () -> ignore (D.Session.scan session ~prefix:[| a |] "tc"))
        else timed ~trace "session.lookup" (fun () -> ignore (D.Session.lookup session "tc" [| a; b |]))
      in
      record (if is_scan then r.direct_scan else r.direct_lookup) (direct *. 1e6);
      record r.overhead (us -. (direct *. 1e6))
    end
    else record r.plain us
  done;
  r

(* serve-tc: resident Sessions over TC, driven through Serve.handle.
   One session per [seconds_per_session] of --seconds (at least
   [min_sessions]) is served, one after another, each over its own seeded
   RMAT-400 graph.  A session: open it (one set-up sample); while one
   closed-loop reader domain issues reads, the closed-loop writer applies
   the session's [small_pairs] seeded small batch pairs, timing one
   reference closure after each pair; then the reader stops and the
   fixpoint, back at the initial EDB, is checked against the BFS
   reference.  [fixpoint_vs_ref] is the mean latency of all small batches
   of all sessions over the interquartile mean of the reference closures.
   Every session applies the same number
   of batches from a fresh start, so the slowdown with history (README.md)
   enters the figure the same way however fast the run goes, and the
   graph-to-graph spread of maintenance cost is averaged over several
   graphs.  The last session then takes one bulk batch, checked against a
   cold [run] of the post-batch EDB and the BFS reference. *)
let min_sessions = 3
let seconds_per_session = 4.

let serve_tc () =
  let trace = !traced_run in
  let spec = D.Queries.tc in
  let prepared, prepare_s = prepare ~trace spec in
  let failed = ref 0 and attempted = ref 0 in
  let check what ok =
    incr attempted;
    if not ok then begin
      incr failed;
      Printf.eprintf "perfbench: serve-tc check failed: %s\n" what
    end
  in
  let edb_of n edges =
    let g = D.Graph.create ~n in
    List.iter (fun (u, v) -> D.Graph.add_edge g u v) edges;
    D.Queries.arc_edb g
  in
  let opens = ref [] and plain = ref [] and traced = ref [] in
  let references = ref [] in
  let maint = ref [] and join = ref [] and publish = ref [] and reads = ref [] in
  let window = ref 0. in
  let overdeleted = ref 0 and rederived = ref 0 and base_changes = ref 0 in
  let derived_changes = ref 0 and maint_steals = ref 0 in
  let sessions = max min_sessions (Float.to_int (Float.round (!seconds /. seconds_per_session))) in
  let final = ref None in
  for gi = 0 to sessions - 1 do
    (* RMAT-400 as Datasets.rmat builds it: 512 vertices, 4000 arcs *)
    let g = D.Gen.rmat ~seed:(graph_seed (4 + (10 * gi))) ~scale:9 ~edges:4000 () in
    let n = D.Graph.n g in
    let base = edges_of g in
    let present = Hashtbl.create 8192 in
    List.iter (fun e -> Hashtbl.replace present e ()) base;
    let arcs = Array.of_list base in
    let rng = Rng.create (graph_seed (5 + (10 * gi))) in
    let smalls =
      Array.init small_pairs (fun _ ->
          let dels, ins = draw_batch rng ~present ~arcs ~n small_arcs in
          (update_line ~dels ~ins, update_line ~dels:ins ~ins:dels))
    in
    let session, open_s =
      timed ~trace "session.open" (fun () ->
          D.open_session prepared ~edb:(edb_of n base) ~config ())
    in
    opens := open_s :: !opens;
    let session_fp () =
      let _, rels = D.Session.snapshot session in
      fingerprint_rel (List.assoc "tc" rels)
    in
    let version = ref (D.Session.version session) in
    let mstats () = (D.Session.stats session).RS.maintenance in
    let join_total () =
      Array.fold_left (fun a w -> a +. w.RS.mw_join_s) 0. (mstats ()).RS.mworkers
    in
    let steals_total () =
      Array.fold_left (fun a w -> a + w.RS.mw_steals) 0 (mstats ()).RS.mworkers
    in
    (* one update request: (seconds, maintain seconds, join seconds) *)
    let apply ~trace line k =
      let m = mstats () in
      let m0 = m.RS.maintain_s and j0 = join_total () in
      let reply, secs = timed ~trace "serve.update" (fun () -> Serve.handle session line) in
      incr version;
      let expected = Printf.sprintf "ok version=%d base=+%d/-%d " !version (k / 2) (k / 2) in
      check
        (Printf.sprintf "update reply %S" (String.concat "|" reply))
        (match reply with [ l ] -> String.starts_with ~prefix:expected l | _ -> false);
      (secs, m.RS.maintain_s -. m0, join_total () -. j0)
    in
    let stop = Atomic.make false in
    let reader_rng = Rng.split rng in
    let reader_domain = Domain.spawn (fun () -> reader session ~n ~rng:reader_rng ~stop ~trace) in
    let m = mstats () in
    let od0 = m.RS.overdeleted and rd0 = m.RS.rederived and st0 = steals_total () in
    let base0 = m.RS.base_inserted + m.RS.base_deleted and der0 = m.RS.inserted + m.RS.deleted in
    let t_start = now () in
    let latencies = ref [] in
    Array.iteri
      (fun i (fwd, inv) ->
        let trace = trace && i land 1 = 1 in
        let pair =
          List.map
            (fun line ->
              let secs, dm, dj = apply ~trace line small_arcs in
              maint := dm :: !maint;
              join := dj :: !join;
              publish := (secs -. dm) :: !publish;
              secs)
            [ fwd; inv ]
        in
        (* a reference closure after every pair, beside the reader as
           the batches were *)
        references := reference_time () :: !references;
        if trace then traced := pair @ !traced else latencies := pair @ !latencies)
      smalls;
    Atomic.set stop true;
    let r = Domain.join reader_domain in
    window := !window +. (now () -. t_start);
    reads := r :: !reads;
    attempted := !attempted + r.ops;
    failed := !failed + r.bad;
    plain := !latencies @ !plain;
    let m = mstats () in
    overdeleted := !overdeleted + m.RS.overdeleted - od0;
    rederived := !rederived + m.RS.rederived - rd0;
    base_changes := !base_changes + m.RS.base_inserted + m.RS.base_deleted - base0;
    derived_changes := !derived_changes + m.RS.inserted + m.RS.deleted - der0;
    maint_steals := !maint_steals + steals_total () - st0;
    (* every batch was undone: the fixpoint is the initial one again *)
    check "fixpoint after the small batches vs BFS reference" (session_fp () = reference_tc n base);
    if gi = sessions - 1 then begin
      let dels, ins = draw_batch rng ~present ~arcs ~n bulk_arcs in
      let bulk_s, bulk_m, _ = apply ~trace (update_line ~dels ~ins) bulk_arcs in
      let post = List.filter (fun e -> not (List.mem e dels)) base @ ins in
      let cold, cold_s =
        timed ~trace "engine.run" (fun () -> D.run prepared ~edb:(edb_of n post) ~config ())
      in
      let cold_fp = fingerprint_result cold "tc" in
      let maintained = session_fp () in
      check "post-bulk fixpoint vs cold recompute" (maintained = cold_fp);
      check "post-bulk fixpoint vs BFS reference" (maintained = reference_tc n post);
      (* the last session's resident state is still referenced *)
      let live = live_heap_mb () in
      final := Some (live, cold_fp.Stats.count, cold_s, cold.D.Parallel.stats, bulk_s, bulk_m)
    end;
    D.Session.close session
  done;
  let live, output, recompute_s, cold_stats, bulk_s, bulk_m = Option.get !final in
  let top = top_heap_mb () in
  let setup_s = Stats.median !opens in
  let batch_s = Stats.median !plain in
  (* the mean, not the median: latencies rise along each session and
     spread widely, and the median of such a sample is the less steady *)
  let batch_mean_s = fsum Fun.id !plain /. float_of_int (List.length !plain) in
  let reference_s = Stats.mid_mean !references in
  let batch_vs_ref = batch_mean_s /. reference_s in
  let plain = !plain in
  let tail xs = Option.value ~default:(0., 0.) (Stats.tail xs) in
  let batch_tail_pct, batch_tail = tail plain in
  let all f = List.concat_map (fun r -> samples (f r)) !reads in
  let plain_reads = all (fun r -> r.plain) in
  let read_tail_pct, read_tail = tail plain_reads in
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 !reads) in
  let ops = total (fun r -> r.ops) in
  let serve_values =
    [
      ("serve.batch_p50_ms", 1e3 *. batch_s); ("serve.batch_tail_ms", 1e3 *. batch_tail);
      ("serve.batch_tail_pct", batch_tail_pct); ("serve.bulk_batch_ms", 1e3 *. bulk_s);
      ("serve.read_p50_us", median_or_zero plain_reads); ("serve.read_tail_us", read_tail);
      ("serve.read_tail_pct", read_tail_pct); ("serve.reads_per_s", ops /. !window);
    ]
  in
  let detail =
    [
      ("setup_s", setup_s); ("fixpoint_vs_ref", batch_vs_ref); ("fixpoint_s", batch_mean_s);
      ("reference_s", reference_s); ("live_heap_mb", live); ("top_heap_mb", top);
      ("sessions", float_of_int sessions);
      ("small_batches", float_of_int (2 * small_pairs * sessions)); ("reads", ops);
      ("bulk_recompute_s", recompute_s); ("output_tuples", float_of_int output);
    ]
    @ serve_values
  in
  let metrics =
    if not !traced_run then
      [ ("setup_s", setup_s, "s"); ("fixpoint_vs_ref", batch_vs_ref, "ratio") ]
    else
      let engine = layer_metrics ~wall:recompute_s ~output cold_stats in
      let f = float_of_int in
      layer_result
        (serve_values
        @ [
            ("frontend.prepare_s", prepare_s); ("engine.fixpoint_s", batch_mean_s);
            ("reference.closure_s", reference_s); ("gc.live_heap_mb", live);
            ("gc.top_heap_mb", top);
            ("maintain.small_s", median_or_zero !maint); ("maintain.bulk_s", bulk_m);
            ("maintain.join_s", median_or_zero !join); ("maintain.overdeleted", f !overdeleted);
            ("maintain.rederive_ratio", ratio (f !rederived) (f !overdeleted));
            ("maintain.derived_per_base", ratio (f !derived_changes) (f !base_changes));
            ("maintain.steals", f !maint_steals);
            ("maintain.vs_recompute", ratio bulk_m recompute_s);
            ("session.publish_s", median_or_zero !publish);
            ("session.lookup_us", median_or_zero (all (fun r -> r.direct_lookup)));
            ("session.scan_us", median_or_zero (all (fun r -> r.direct_scan)));
            ("session.scan_rows", ratio (total (fun r -> r.scan_rows)) (total (fun r -> r.scans)));
            ("serve.handle_overhead_us", median_or_zero (all (fun r -> r.overhead)));
            (* share of a small batch's time inside the session's
               maintenance counter (Maintain.apply and the publish) *)
            ("attribution.share", ratio (median_or_zero !maint) (Stats.median plain));
            ("trace.overhead_share", ratio (median_or_zero !traced) (Stats.median plain) -. 1.);
            ("run.failed_frac", ratio (f !failed) (f !attempted));
          ]
        @ List.filter (fun (k, _) -> k <> "attribution.share") engine)
  in
  finish ~attempted:!attempted ~failed:!failed ~metrics ~detail

let () =
  match !workload with
  | "tc-rmat" -> tc_rmat ()
  | "cc-arabic" -> cc_arabic ()
  | "triangle-orkut" -> triangle_orkut ()
  | "serve-tc" -> serve_tc ()
  | w -> fail "unknown workload %S (tc-rmat, cc-arabic, triangle-orkut, serve-tc)" w
