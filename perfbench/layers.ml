(* Per-layer metrics (--trace 1).  Two sources:

   - the traced served run: the server's own phase breakdown of every
     request (wire v2 [query_traced]) and its registry after the window
     give the serve and durable layers;
   - an in-process replay of the same statement streams (round robin
     over the connections, each up to the prefix the server
     acknowledged) on a fresh durable copy of the seeded database.  The
     replay evaluates each statement through the same public entry
     points a server session uses, with this benchmark's own spans
     around each call; the spans never nest, so a span's time is its
     layer's self time.  Whatever a statement spends outside every
     span is reported as [ledger.unattributed_pct], never folded into
     a layer. *)

open Mad_store
module Session = Mad_mql.Session
module Translate = Mad_mql.Translate
module Ast = Mad_mql.Ast
module MA = Mad.Molecule_algebra
module R = Mad_recursive.Recursive

let now_ns = Served.now_ns
let emit = Out.emit
let note = Out.note

type acc = {
  ns : (string, int) Hashtbl.t;  (** layer -> self ns *)
  mutable extra_ns : int;
      (** filter re-measurement passes, excluded from statement time *)
}

let add acc layer d =
  Hashtbl.replace acc.ns layer (d + Option.value (Hashtbl.find_opt acc.ns layer) ~default:0)

let span acc layer f =
  let t0 = now_ns () in
  let r = f () in
  add acc layer (now_ns () - t0);
  r

let layer_ns acc layer = Option.value (Hashtbl.find_opt acc.ns layer) ~default:0

(* Every derivation reads the kernel snapshot of the current epoch
   first; taking it just before the call moves its cost (cache hit,
   delta apply or rebuild) out of the derive span without changing what
   the derivation does. *)
let derive acc (s : Session.t) ~name desc =
  span acc "kernel.snapshot" (fun () -> ignore (Mad_kernel.Snapshot.of_db s.db));
  span acc "core.derive" (fun () -> MA.define ~stats:s.stats s.db ~name desc)

(* Σ's filtering is measured by a separate pass of the same predicate
   over the same occurrence; the rest of Σ (typecheck, Def. 9
   propagation, exactness check) is propagation. *)
let restrict acc (s : Session.t) q (mt : Mad.Molecule_type.t) =
  let t0 = now_ns () in
  List.iter (fun m -> ignore (MA.molecule_satisfies s.db mt m q)) mt.occ;
  let f = now_ns () - t0 in
  acc.extra_ns <- acc.extra_ns + f;
  let t1 = now_ns () in
  let r = MA.restrict ~stats:s.stats s.db q mt in
  let total = now_ns () - t1 in
  add acc "core.filter" (min f total);
  add acc "core.propagate" (max 0 (total - f));
  r

(* Only the plan shapes the generated streams compile to are replayed:
   α, catalog references, Σ, Π, Ω of molecule types, and recursion. *)
let rec exec acc (s : Session.t) plan =
  let molecule p =
    match exec acc s p with
    | Translate.Molecules mt -> mt
    | Translate.Recursive _ | Translate.Cycles _ -> Err.failf "not a molecule type"
  in
  let db = s.db and stats = s.stats in
  match plan with
  | Translate.P_define (name, desc) -> Translate.Molecules (derive acc s ~name desc)
  | Translate.P_ref name -> (
    match Session.lookup s name with
    | Some mt -> Translate.Molecules mt
    | None -> Err.failf "unknown molecule type %s" name)
  | Translate.P_restrict (q, p) -> Translate.Molecules (restrict acc s q (molecule p))
  | Translate.P_project (items, p) ->
    let mt = molecule p in
    Translate.Molecules
      (span acc "core.propagate" (fun () -> MA.project ~stats db items mt))
  | Translate.P_union (a, b) ->
    let x = molecule a in
    let y = molecule b in
    Translate.Molecules (span acc "core.propagate" (fun () -> MA.union ~stats db x y))
  | Translate.P_recursive (d, where) ->
    span acc "kernel.snapshot" (fun () -> ignore (Mad_kernel.Snapshot.of_db db));
    span acc "recursive.define" (fun () ->
        let t = R.define ~stats db ~name:(MA.gen_name "rq") d in
        match where with
        | None -> Translate.Recursive t
        | Some q -> Translate.Recursive (R.restrict db q t ~name:(t.R.name ^ "_sigma")))
  | Translate.P_diff _ | Translate.P_intersect _ | Translate.P_product _
  | Translate.P_cycle _ ->
    Err.failf "plan shape not produced by the generated streams"

(* The rendering a server would send, and the result's cardinality. *)
let render (s : Session.t) = function
  | Translate.Molecules mt ->
    ( Format.asprintf "%a" (fun ppf () -> Mad.Render.pp_molecule_type s.db ppf mt) (),
      Mad.Molecule_type.cardinality mt )
  | Translate.Recursive r -> (Format.asprintf "%a" R.pp (s.db, r), List.length r.R.occ)
  | Translate.Cycles _ -> Err.failf "plan shape not produced by the generated streams"

(* A named FROM definition enters the session catalog on first use. *)
let catalogued acc (s : Session.t) name st =
  match Session.lookup s name with
  | Some mt -> mt
  | None ->
    let mt = derive acc s ~name (Translate.resolve_structure s.db st) in
    Session.define s name mt;
    mt

let hoist acc s (from : Ast.from_item) =
  match from with
  | Ast.From_named_def (name, st) ->
    ignore (catalogued acc s name st);
    Ast.From_ref name
  | f -> f

let rec hoist_q acc s = function
  | Ast.Q q -> Ast.Q { q with Ast.from = hoist acc s q.Ast.from }
  | Ast.Union (a, b) -> Ast.Union (hoist_q acc s a, hoist_q acc s b)
  | Ast.Diff (a, b) -> Ast.Diff (hoist_q acc s a, hoist_q acc s b)
  | Ast.Intersect (a, b) -> Ast.Intersect (hoist_q acc s a, hoist_q acc s b)

let dml_target acc (s : Session.t) from where =
  let mt =
    match from with
    | Ast.From_named_def (name, st) -> catalogued acc s name st
    | _ -> Err.failf "manipulation target not produced by the generated streams"
  in
  let victims =
    match where with
    | None -> mt.Mad.Molecule_type.occ
    | Some pred ->
      span acc "core.filter" (fun () ->
          MA.typecheck_qual s.db mt pred;
          List.filter (fun m -> MA.molecule_satisfies s.db mt m pred) mt.occ)
  in
  (mt, victims)

type conn_state = {
  s : Session.t;
  mutable last_epoch : int;
  mutable appended : int;
}

type totals = {
  mutable stmts : int;
  mutable reads : int;
  mutable commits : int;
  mutable failed : int;
  mutable refreshes : int;
  mutable wall_ns : int;  (** statement time, re-measurement passes excluded *)
  mutable read_epoch_moves : int;
  mutable read_atoms : int;
  mutable read_molecules : int;
  mutable atom_types_start : int;
  mutable atom_types_end : int;
  mutable link_types_end : int;
  mutable rebuilds : int;
  mutable delta_applies : int;
  mutable repairs : int;
}

(* One statement, as a server session evaluates it: refresh a stale
   catalog, parse, then the query or manipulation path. *)
let statement acc tot coord c text =
  let s = c.s in
  let db = s.db in
  let refresh () =
    tot.refreshes <- tot.refreshes + 1;
    span acc "mql.refresh" (fun () -> Session.refresh s)
  in
  if Database.epoch db <> c.last_epoch then refresh ();
  let commit () =
    refresh ();
    span acc "durable.sync" (fun () ->
        Session.commit s;
        Mad_durable.Coordinator.wait_durable coord c.appended);
    tot.commits <- tot.commits + 1
  in
  let dml f =
    span acc "store.dml" f;
    commit ()
  in
  (match span acc "mql.parse" (fun () -> Session.parse s text) with
   | Ast.Query q ->
     let e0 = Database.epoch db and a0 = Mad.Derive.atoms_visited s.stats in
     let q = hoist_q acc s q in
     let plan =
       span acc "mql.compile" (fun () -> Translate.compile db (Session.lookup s) q)
     in
     let r = exec acc s plan in
     let _, n = span acc "core.render" (fun () -> render s r) in
     tot.reads <- tot.reads + 1;
     tot.read_epoch_moves <- tot.read_epoch_moves + (Database.epoch db - e0);
     tot.read_atoms <- tot.read_atoms + (Mad.Derive.atoms_visited s.stats - a0);
     tot.read_molecules <- tot.read_molecules + n
   | Ast.Insert { atype; values; links } ->
     dml (fun () ->
         ignore (Mad.Manipulate.insert_atom_linked db ~atype values ~links))
   | Ast.Link { lt; left; right } ->
     dml (fun () ->
         let e1, _ = (Database.link_type db lt).Schema.Link_type.ends in
         if String.equal (Database.atom db left).Atom.atype e1 then
           Database.add_link db lt ~left ~right
         else Database.add_link db lt ~left:right ~right:left)
   | Ast.Unlink { lt; left; right } ->
     dml (fun () ->
         Database.remove_link db lt ~left ~right;
         Database.remove_link db lt ~left:right ~right:left)
   | Ast.Delete { from; where; detach } ->
     let mt, victims = dml_target acc s from where in
     let mode = if detach then `Unlink_only else `Shared_safe in
     dml (fun () -> ignore (Mad.Manipulate.delete_molecules ~mode db mt victims))
   | Ast.Modify { node; attr; value; from; where } ->
     let _, victims = dml_target acc s from where in
     dml (fun () ->
         ignore (Mad.Manipulate.modify_attribute db ~node ~attr value victims))
   | Ast.Define _ | Ast.Explain _ -> Err.failf "not part of a generated stream");
  c.last_epoch <- Database.epoch db

(* the kernel and closure counters live in the process-wide registry *)
let counter name =
  Mad_obs.Registry.counter_value
    (Mad_obs.Obs.registry (Mad_obs.Obs.default ()))
    name

let replay ~work ~(seeded : Gen.t) ~acked ~seconds =
  let dir = Filename.concat work "replay" in
  let h = Mad_durable.Durable.open_dir ~seed:seeded.db dir in
  Fun.protect ~finally:(fun () -> Mad_durable.Durable.close h) @@ fun () ->
  let db = Mad_durable.Durable.db h in
  let coord = Mad_durable.Coordinator.for_durable h in
  let conns =
    Array.map
      (fun (conn : Gen.conn) ->
        let s = Session.create ~obs:(Mad_obs.Obs.create ()) db in
        List.iter (fun q -> ignore (Session.run s q)) conn.warmup;
        let c = { s; last_epoch = -1; appended = 0 } in
        ignore
          (Session.add_on_commit s (fun () ->
               c.appended <- Mad_durable.Durable.wal_records h));
        c)
      seeded.conns
  in
  let acc = { ns = Hashtbl.create 16; extra_ns = 0 } in
  let types () = List.length (Database.atom_type_names db) in
  let rebuild0 = counter "snapshot.rebuild" in
  let delta0 = counter "snapshot.delta_applied" in
  let repair0 = counter "closure.repaired" in
  let tot =
    {
      stmts = 0; reads = 0; commits = 0; failed = 0; refreshes = 0; wall_ns = 0;
      read_epoch_moves = 0; read_atoms = 0; read_molecules = 0;
      atom_types_start = types (); atom_types_end = 0; link_types_end = 0;
      rebuilds = 0; delta_applies = 0; repairs = 0;
    }
  in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let longest = Array.fold_left max 0 acked in
  let i = ref 0 in
  while !i < longest && now_ns () < deadline do
    Array.iteri
      (fun ci c ->
        if !i < acked.(ci) then begin
          let extra0 = acc.extra_ns in
          let t0 = now_ns () in
          (try statement acc tot coord c seeded.conns.(ci).stmts.(!i).text
           with Err.Mad_error _ -> tot.failed <- tot.failed + 1);
          tot.wall_ns <- tot.wall_ns + (now_ns () - t0 - (acc.extra_ns - extra0));
          tot.stmts <- tot.stmts + 1
        end)
      conns;
    incr i
  done;
  tot.atom_types_end <- types ();
  tot.link_types_end <- List.length (Database.link_type_names db);
  tot.rebuilds <- counter "snapshot.rebuild" - rebuild0;
  tot.delta_applies <- counter "snapshot.delta_applied" - delta0;
  tot.repairs <- counter "closure.repaired" - repair0;
  (acc, tot)

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let report ~work ~seeded ~acked ~seconds ~(served : Served.op list) ~stats
    ~snapshot_bytes ~overhead_pct =
  let acc, tot = replay ~work ~seeded ~acked ~seconds in
  (* serve: the client's round trip against the server's own phases *)
  let ok = List.filter (fun (o : Served.op) -> o.ok) served in
  let of_cls c f =
    List.filter_map (fun (o : Served.op) -> if o.cls = c then Some (f o) else None) ok
  in
  let q l p = if l = [] then 0.0 else Quant.quantile (Quant.sorted l) p in
  let rtt_over (o : Served.op) = (float_of_int o.lat_ns /. 1e3) -. o.server_us in
  emit "serve.rtt_overhead_us" (q (List.map rtt_over ok) 0.5) "us";
  List.iter
    (fun (c, tag) ->
      let l = of_cls c (fun o -> o.lock_us) in
      emit ("serve.lock_wait_p50_us." ^ tag) (q l 0.5) "us";
      emit ("serve.lock_wait_p99_us." ^ tag) (q l 0.99) "us")
    [ (Gen.Read, "read"); (Gen.Write, "write") ];
  emit "serve.response_bytes_per_read"
    (mean (of_cls Gen.Read (fun o -> float_of_int o.bytes)))
    "B";
  (* the replay: mean self time per replayed statement *)
  let us layer =
    float_of_int (layer_ns acc layer) /. 1e3 /. float_of_int (max 1 tot.stmts)
  in
  emit "mql.parse_us" (us "mql.parse") "us";
  emit "mql.compile_us" (us "mql.compile") "us";
  emit "mql.refresh_us" (us "mql.refresh") "us";
  emit "mql.refreshes_per_stmt" (per tot.refreshes tot.stmts) "count";
  emit "core.derive_us" (us "core.derive") "us";
  emit "core.filter_us" (us "core.filter") "us";
  emit "core.propagate_us" (us "core.propagate") "us";
  emit "core.render_us" (us "core.render") "us";
  emit "core.atoms_visited_per_read" (per tot.read_atoms tot.reads) "count";
  emit "core.molecules_per_atom_visited" (per tot.read_molecules tot.read_atoms) "ratio";
  emit "kernel.snapshot_us" (us "kernel.snapshot") "us";
  emit "kernel.rebuilds_per_stmt" (per tot.rebuilds tot.stmts) "count";
  emit "kernel.delta_applies_per_stmt" (per tot.delta_applies tot.stmts) "count";
  emit "recursive.define_us" (us "recursive.define") "us";
  emit "recursive.repairs_per_commit" (per tot.repairs tot.commits) "count";
  emit "store.epoch_moves_per_read" (per tot.read_epoch_moves tot.reads) "count";
  emit "store.atom_types_end" (float_of_int tot.atom_types_end) "count";
  emit "store.atom_types_per_read"
    (per (tot.atom_types_end - tot.atom_types_start) tot.reads)
    "count";
  emit "store.link_types_end" (float_of_int tot.link_types_end) "count";
  emit "store.dml_us" (us "store.dml") "us";
  (* durable: the served run's group commit *)
  let commits = Served.metric stats "serve_group_commits" in
  let per_commit name =
    if commits = 0.0 then 0.0 else Served.metric stats name /. commits
  in
  emit "durable.fsyncs_per_commit" (per_commit "serve_group_fsyncs") "count";
  emit "durable.wal_bytes_per_commit" (per_commit "wal_append_bytes") "B";
  emit "durable.commit_wait_us" (q (of_cls Gen.Write (fun o -> o.commit_us)) 0.5) "us";
  emit "durable.sync_us" (us "durable.sync") "us";
  emit "durable.snapshot_bytes" (float_of_int snapshot_bytes) "B";
  emit "obs.trace_overhead_pct" overhead_pct "%";
  (* the ledger: statement time that no span accounts for *)
  let spans = Hashtbl.fold (fun _ v a -> a + v) acc.ns 0 in
  emit "ledger.unattributed_pct" (100.0 *. per (tot.wall_ns - spans) tot.wall_ns) "%";
  emit "ledger.stmt_us"
    (float_of_int tot.wall_ns /. 1e3 /. float_of_int (max 1 tot.stmts))
    "us";
  emit "ledger.statements" (float_of_int tot.stmts) "count";
  note "replay: %d statements (%d reads, %d commits, %d failed) of %d acknowledged"
    tot.stmts tot.reads tot.commits tot.failed (Array.fold_left ( + ) 0 acked);
  note "replay: atom types %d -> %d over %d reads; read epoch moves %d"
    tot.atom_types_start tot.atom_types_end tot.reads tot.read_epoch_moves;
  if tot.reads = 0 then note "replay: no reads; the per-read ratios are not applicable (0)";
  if tot.commits = 0 then
    note "replay: no commits; the per-commit ratios are not applicable (0)";
  tot.failed
