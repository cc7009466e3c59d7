(* The served side: a [madql serve] child process over a generated dump,
   and a closed loop driving it through [Mad_serve.Client] with one
   connection (and one domain) per statement stream.  The server runs
   in its own process so the load generator's allocation never pauses
   the server's domains. *)

module Client = Mad_serve.Client

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- the server process ------------------------------------------- *)

type server = { pid : int; port : int; out : Unix.file_descr }

let live : int list ref = ref []

(* The benchmark must never leave a server behind, whatever ends it. *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Only generated inputs reach the server: no MAD_* knob of the caller's
   environment may change what it does. *)
let scrubbed_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"MAD_" kv))
  |> Array.of_list

let read_line_within fd secs =
  let buf = Buffer.create 128 in
  let deadline = Unix.gettimeofday () +. secs in
  let byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> None
        | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
        | _ ->
          Buffer.add_char buf (Bytes.get byte 0);
          go ())
  in
  go ()

let start ~madql ~dump ~data ~workers ~log =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv =
    [| madql; "serve"; "-d"; dump; "--data"; data; "--port"; "0";
       "--workers"; string_of_int workers |]
  in
  let pid = Unix.create_process_env madql argv (scrubbed_env ()) null out_w err in
  live := pid :: !live;
  List.iter Unix.close [ out_w; err; null ];
  let port =
    match read_line_within out_r 60.0 with
    | Some line -> (
      try Scanf.sscanf line "listening on %_[^:]:%d" (fun p -> Some p)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    | None -> None
  in
  match port with
  | Some port -> { pid; port; out = out_r }
  | None ->
    Unix.close out_r;
    kill_all ();
    failwith ("server did not start; see " ^ log)

(* SIGTERM drains in-flight requests and rolls the shutdown snapshot;
   the exit status must be 0.  Returns the CPU seconds (user + system)
   the server used over its whole life, which the kernel reports for a
   child once it has been waited for. *)
let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let stop s =
  let cpu0 = children_cpu () in
  Unix.kill s.pid Sys.sigterm;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid);
      failwith "server did not stop within 60 s of SIGTERM"
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> failwith "server exited abnormally"
  in
  Fun.protect
    ~finally:(fun () ->
      live := List.filter (( <> ) s.pid) !live;
      Unix.close s.out)
    wait;
  children_cpu () -. cpu0

let connect port =
  match Client.connect ~timeout:120.0 ~host:"127.0.0.1" port with
  | Ok c -> Ok c
  | Error e -> Error (Format.asprintf "%a" Client.pp_connect_error e)

(* --- Prometheus exposition scraping -------------------------------- *)

let scrape c =
  let tbl = Hashtbl.create 256 in
  String.split_on_char '\n' (Client.stats c)
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | Some i -> (
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             match float_of_string_opt v with
             | Some v -> Hashtbl.replace tbl (String.sub line 0 i) v
             | None -> ())
           | None -> ());
  tbl

let metric tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0.0

(* --- the closed loop ----------------------------------------------- *)

(* One completed (or failed) statement as the client saw it. *)
type op = {
  conn : int;
  idx : int;  (** position in the connection's stream *)
  cls : Gen.cls;
  t_end : int;  (** monotonic ns *)
  lat_ns : int;
  ok : bool;
  bytes : int;  (** response body length *)
  body : string;  (** normalized body digest (geo-read) or "" *)
  server_us : float;  (** server-reported total, traced runs only *)
  lock_us : float;
  commit_us : float;  (** wal + fsync phases *)
}

type conn_result = {
  ops : op list;  (** completion order *)
  acked : int;  (** stream prefix acknowledged *)
  setup_errors : int;  (** refused connects and failed warm-up statements *)
}

(* The generated result-type name is the one part of a rendering that
   differs between two evaluations of the same statement. *)
let normalize body =
  let line, rest =
    match String.index_opt body '\n' with
    | Some i -> (String.sub body 0 i, String.sub body i (String.length body - i))
    | None -> (body, "")
  in
  let words = String.split_on_char ' ' line in
  let words =
    match words with
    | "molecule" :: "type" :: _ :: tl -> "molecule" :: "type" :: "_" :: tl
    | w -> w
  in
  String.concat " " words ^ rest

let body_digest body = Digest.string (normalize body)

let phase phases name = Option.value (List.assoc_opt name phases) ~default:0.0

let drive_conn ~port ~(conn : Gen.conn) ~ci ~traced ~keep_bodies ~ready ~go =
  let stop_waiting () = Atomic.incr ready in
  match connect port with
  | Error _ ->
    stop_waiting ();
    ({ ops = []; acked = 0; setup_errors = 1 }, None)
  | Ok c ->
    let warm_failed =
      List.fold_left
        (fun n s -> match Client.exec c s with Ok _ -> n | Error _ -> n + 1)
        0 conn.warmup
    in
    stop_waiting ();
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let ops = ref [] in
    let i = ref 0 in
    let n = Array.length conn.stmts in
    (try
       while !i < n do
         let s = conn.stmts.(!i) in
         let t0 = now_ns () in
         let res, phases =
           if traced then
             match Client.query_traced c s.text with
             | Ok (body, ph) -> (Ok body, ph)
             | Error m -> (Error m, [])
           else
             match s.cls with
             | Gen.Read -> (Client.query c s.text, [])
             | Gen.Write -> (Client.exec c s.text, [])
         in
         let t1 = now_ns () in
         let ok, body =
           match res with Ok b -> (true, b) | Error m -> (false, m)
         in
         let server_us =
           List.fold_left (fun a (_, us) -> a +. us) 0.0 phases
         in
         ops :=
           {
             conn = ci;
             idx = !i;
             cls = s.cls;
             t_end = t1;
             lat_ns = t1 - t0;
             ok;
             bytes = String.length body;
             body = (if keep_bodies && ok then body_digest body else "");
             server_us;
             lock_us = phase phases "lock";
             commit_us = phase phases "wal" +. phase phases "fsync";
           }
           :: !ops;
         incr i
       done
     with Client.Remote _ -> ());
    ({ ops = List.rev !ops; acked = !i; setup_errors = warm_failed }, Some c)

type run = {
  results : conn_result array;
  window_s : float;
  stats_end : (string, float) Hashtbl.t;
      (** server registry after the window; warm-up commits nothing,
          so its counters are the window's *)
}

(* Warm up every connection (connect + catalog definitions), start all
   streams together, run each to its end, then scrape the server
   registry once more before closing. *)
let drive ~port ~(w : Gen.t) ~traced =
  let k = Array.length w.conns in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let doms =
    Array.mapi
      (fun ci conn ->
        Domain.spawn (fun () ->
            drive_conn ~port ~conn ~ci ~traced ~keep_bodies:w.check_bodies
              ~ready ~go))
      w.conns
  in
  while Atomic.get ready < k do
    Unix.sleepf 0.001
  done;
  let t0 = now_ns () in
  Atomic.set go true;
  let joined = Array.map Domain.join doms in
  let t_last =
    Array.fold_left
      (fun acc (r, _) -> List.fold_left (fun a o -> max a o.t_end) acc r.ops)
      t0 joined
  in
  let clients = Array.to_list joined |> List.filter_map snd in
  let stats_end =
    match clients with
    | c :: _ -> ( try scrape c with Client.Remote _ -> Hashtbl.create 1)
    | [] -> Hashtbl.create 1
  in
  List.iter (fun c -> Client.close c) clients;
  {
    results = Array.map fst joined;
    window_s = float_of_int (t_last - t0) /. 1e9;
    stats_end;
  }
