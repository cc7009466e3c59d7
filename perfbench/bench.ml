(* The repo benchmark: served MOL traffic on one workload, end to end
   (--trace 0) or broken down by layer (--trace 1).  See README.md for
   the workloads, the metrics and what each layer metric should move.
   Run it through run.py, which builds the server and this program and
   scrubs the environment first. *)

let usage = "bench --workload W --seed N --seconds S --trace 0|1 --madql EXE"

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  madql : string;
  rev : string;
  scrubbed : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and madql = ref "" and rev = ref "unknown" in
  let scrubbed = ref "" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " one of " ^ String.concat ", " Gen.names );
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time, summed over the rounds");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics");
      ("--madql", Arg.Set_string madql, " the built madql executable");
      ("--rev", Arg.Set_string rev, " source revision to record");
      ("--scrubbed", Arg.Set_string scrubbed, " MAD_* variables the caller unset");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Gen.names) then
    raise (Arg.Bad ("unknown workload " ^ !workload));
  if not (Sys.file_exists !madql) then
    raise (Arg.Bad "--madql must name the built madql executable");
  (* the in-process replay reads these knobs too: only run.py's
     scrubbed environment makes two runs comparable *)
  if Array.exists (String.starts_with ~prefix:"MAD_") (Unix.environment ()) then
    raise (Arg.Bad "MAD_* variables are set: run the benchmark through run.py");
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    madql = !madql;
    rev = !rev;
    scrubbed = !scrubbed;
  }

open Quant
open Out

(* --- files ------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  | _ -> (Unix.lstat path).Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* --- one round ---------------------------------------------------------- *)

type round = {
  run : Served.run;
  setup_s : float;
  store_bytes : int;
  snapshot_bytes : int;
  failed : int;  (** error responses, refusals and check mismatches *)
  attempted : int;
  cpu_s : float;  (** the round's server's CPU seconds over its life *)
  w : Gen.t;
}

(* Set-up = generate the database and streams, dump, start the server,
   first connect. *)
let setup a ~work =
  let dump = Filename.concat work "seed.mad" and data = Filename.concat work "data" in
  let log = Filename.concat work "serve.log" in
  rm_rf data;
  let t0 = Served.now_ns () in
  let w = Gen.build a.workload a.seed in
  Mad_store.Serialize.dump_file w.db dump;
  let srv =
    Served.start ~madql:a.madql ~dump ~data ~workers:(Array.length w.conns) ~log
  in
  (match Served.connect srv.port with
   | Ok c -> Mad_serve.Client.close c
   | Error e -> failwith ("first connect failed: " ^ e));
  (w, srv, float_of_int (Served.now_ns () - t0) /. 1e9, dump, data)

(* One round: set up, run every stream to its end, stop the server,
   measure its data directory and check what it answered and stored.
   [reference] holds the reference renderings across rounds. *)
let round a ~work ~reference ~traced =
  let w, srv, setup_s, dump, data = setup a ~work in
  let run =
    match Served.drive ~port:srv.port ~w ~traced with
    | run -> run
    | exception e ->
      ignore (Served.stop srv);
      raise e
  in
  let cpu_s = Served.stop srv in
  let store_bytes = dir_bytes data in
  let snapshot_bytes =
    dir_bytes (Filename.concat data Mad_durable.Durable.snapshot_basename)
  in
  let seeded = Mad_store.Serialize.load_file dump in
  let h = Mad_durable.Durable.open_dir data in
  let store_bad =
    Fun.protect
      ~finally:(fun () -> Mad_durable.Durable.close h)
      (fun () -> Check.store w ~seeded (Mad_durable.Durable.db h) run.results)
  in
  let body_bad =
    if not w.check_bodies then 0
    else begin
      if Option.is_none !reference then reference := Some (Check.reference w ~dump);
      Check.bodies w (Option.get !reference) run.results
    end
  in
  let ops =
    Array.to_list run.results |> List.concat_map (fun (r : Served.conn_result) -> r.ops)
  in
  let setup_errors =
    Array.fold_left (fun n (r : Served.conn_result) -> n + r.setup_errors) 0 run.results
  in
  let errors = Check.count_if (fun (o : Served.op) -> not o.ok) ops in
  if store_bad > 0 then note "check: %d store mismatch(es) after reopen" store_bad;
  if body_bad > 0 then note "check: %d read body mismatch(es)" body_bad;
  {
    run;
    setup_s;
    store_bytes;
    snapshot_bytes;
    failed = errors + setup_errors + store_bad + body_bad;
    attempted = List.length ops + setup_errors;
    cpu_s;
    w;
  }

(* Rounds follow one another until their windows add up to [seconds]
   (at least [min_rounds] of them), or until [budget_s] of wall-clock
   time has gone, whichever comes first. *)
let min_rounds = 3

let rounds a ~work ~reference ~budget_s =
  let t0 = Unix.gettimeofday () in
  let rec go acc measured =
    let n = List.length acc in
    if n >= min_rounds
       && (measured >= a.seconds || Unix.gettimeofday () -. t0 >= budget_s)
    then List.rev acc
    else
      let r = round a ~work ~reference ~traced:false in
      go (r :: acc) (measured +. r.run.window_s)
  in
  go [] 0.0

let ops_of (r : round) =
  Array.to_list r.run.results
  |> List.concat_map (fun (c : Served.conn_result) -> c.ops)
  |> List.sort (fun (x : Served.op) y -> compare x.t_end y.t_end)

let ok_ops r = List.filter (fun (o : Served.op) -> o.ok) (ops_of r)
let ms (o : Served.op) = float_of_int o.lat_ns /. 1e6

let ops_per_s r = float_of_int (List.length (ok_ops r)) /. r.run.window_s
let p50_ms r = median (List.map ms (ok_ops r))
let cpu_ms_per_op r = r.cpu_s *. 1e3 /. float_of_int (max 1 (List.length (ok_ops r)))
let heap_mb r name = Served.metric r.run.stats_end name *. 8.0 /. 1048576.0
let heap_mb_peak r = heap_mb r "runtime_top_heap_words"
let store_kb r = float_of_int r.store_bytes /. 1024.0

(* p50 of the last tenth of a round's statements over p50 of its first
   tenth *)
let drift r =
  let ops = ok_ops r in
  let n = List.length ops in
  let tenth = max 1 (n / 10) in
  let first = median (List.filteri (fun i _ -> i < tenth) ops |> List.map ms) in
  let last = median (List.filteri (fun i _ -> i >= n - tenth) ops |> List.map ms) in
  last /. first

let over rs f = median (List.map f rs)

(* --- the account of a run ------------------------------------------------ *)

let latency_line label (l : float list) =
  let a = sorted l in
  match tail a with
  | Some (q, v) ->
    let n = Array.length a in
    note "  %-6s n=%d p50=%.3f ms p%g=%.3f ms (%d samples beyond)" label n
      (quantile a 0.5) (q *. 100.0) v
      (int_of_float (float_of_int n *. (1.0 -. q)))
  | None -> note "  %-6s n=%d (too few samples for a tail)" label (Array.length a)

(* The human-readable account: one line per round, then latency per
   class over every round with its sample count and highest
   well-sampled percentile, and the error fraction. *)
let summarize rs =
  List.iteri
    (fun i r ->
      note
        "round %d: setup %.4f s, %d ok in %.3f s (%.2f/s), p50 %.3f ms, drift \
         %.3f, cpu %.4f ms/op, heap peak %.3f MB, end %.3f MB, store %.1f KB"
        (i + 1) r.setup_s (List.length (ok_ops r)) r.run.window_s (ops_per_s r)
        (p50_ms r) (drift r) (cpu_ms_per_op r) (heap_mb_peak r)
        (heap_mb r "runtime_heap_words") (store_kb r))
    rs;
  let ops = List.concat_map ok_ops rs in
  let of_cls c =
    List.filter_map (fun (o : Served.op) -> if o.cls = c then Some (ms o) else None) ops
  in
  note "latency (ms, exact quantiles of sorted samples over %d rounds, warm-up excluded):"
    (List.length rs);
  latency_line "all" (List.map ms ops);
  if of_cls Gen.Read <> [] then latency_line "read" (of_cls Gen.Read);
  if of_cls Gen.Write <> [] then latency_line "write" (of_cls Gen.Write);
  let failed = List.fold_left (fun n r -> n + r.failed) 0 rs in
  let attempted = List.fold_left (fun n r -> n + r.attempted) 0 rs in
  note "error_frac = %.6f (%d of %d attempts failed, refused or mis-answered)"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  sorted (List.map ms ops)

(* The gated metrics.  The two timings of a round's statements are the
   least over the rounds of a run: on a virtual machine that shares its
   host, other guests' load only ever adds to a round's times, and it
   comes in bursts that leave some rounds of a run alone and slow others
   by up to a half.  A change to the program moves every round, the
   least with them.  Set-up and sizes are the median over the rounds.
   Server CPU per statement stands beside latency because time stolen
   by other guests is not charged to the server. *)
let least rs f = List.fold_left (fun m r -> Float.min m (f r)) infinity rs

let end_to_end rs =
  emit "setup_s" (over rs (fun r -> r.setup_s)) "s";
  emit "cpu_ms_per_op" (least rs cpu_ms_per_op) "ms";
  emit "p50_ms" (least rs p50_ms) "ms";
  emit "heap_mb_peak" (over rs heap_mb_peak) "MB";
  emit "store_kb_end" (over rs store_kb) "KB"

(* Reported in a traced run, without a bound: too noisy to gate. *)
let unbounded rs all =
  emit "e2e.ops_per_s" (over rs ops_per_s) "1/s";
  emit "e2e.p95_ms" (quantile all 0.95) "ms";
  emit "e2e.p99_ms" (quantile all 0.99) "ms";
  emit "e2e.p50_drift" (over rs drift) "ratio"

(* --- main ------------------------------------------------------------- *)

let header a (w : Gen.t) =
  note "workload %s seed %d seconds %g trace %b" a.workload a.seed a.seconds a.trace;
  note "nproc %d ocaml %s rev %s" (Domain.recommended_domain_count ())
    Sys.ocaml_version a.rev;
  note "scrubbed env: %s" (if a.scrubbed = "" then "(none set)" else a.scrubbed);
  Array.iteri
    (fun i (c : Gen.conn) ->
      note "stream %d: %d stmts md5 %s" i (Array.length c.stmts) (Gen.stream_hash c))
    w.conns

let main a =
  let base = Filename.concat "perfbench" "_work" in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let work =
    Filename.concat base (Printf.sprintf "%s-%d-%d" a.workload a.seed (Unix.getpid ()))
  in
  rm_rf work;
  Unix.mkdir work 0o755;
  Fun.protect
    ~finally:(fun () ->
      Served.kill_all ();
      rm_rf work;
      try Unix.rmdir base with Unix.Unix_error _ -> ())
    (fun () ->
      let reference = ref None in
      let plain = rounds a ~work ~reference ~budget_s:90.0 in
      header a (List.hd plain).w;
      let all = summarize plain in
      let failed = List.fold_left (fun n r -> n + r.failed) 0 plain in
      let attempted = List.fold_left (fun n r -> n + r.attempted) 0 plain in
      if not a.trace then begin
        end_to_end plain;
        (failed = 0, attempted, failed)
      end
      else begin
        unbounded plain all;
        (* three traced rounds, for a median to set against the
           untraced rounds'; the layers come from the first *)
        let traced = List.init min_rounds (fun _ -> round a ~work ~reference ~traced:true) in
        let t = List.hd traced in
        let layers =
          Layers.report ~work ~seeded:(Gen.build a.workload a.seed)
            ~acked:(Array.map (fun (r : Served.conn_result) -> r.acked) t.run.results)
            ~seconds:a.seconds ~served:(ops_of t) ~stats:t.run.stats_end
            ~snapshot_bytes:t.snapshot_bytes
            ~overhead_pct:
              (100.0 *. ((over traced cpu_ms_per_op /. over plain cpu_ms_per_op) -. 1.0))
        in
        let failed = List.fold_left (fun n r -> n + r.failed) (failed + layers) traced in
        (failed = 0, List.fold_left (fun n r -> n + r.attempted) attempted traced, failed)
      end)

let () =
  match parse_args () with
  | exception Arg.Bad msg ->
    prerr_endline msg;
    exit 2
  | a -> (
    match main a with
    | correct, attempted, failed ->
      result ~correct ~attempted ~failed;
      exit (if correct then 0 else 1)
    | exception e ->
      prerr_endline ("bench: " ^ Printexc.to_string e);
      exit 1)
