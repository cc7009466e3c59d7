(* Correctness checks.  Each returns the number of mismatches found; a
   mismatch fails the run and counts as a failed operation. *)

open Mad_store

let atoms_by_name db atype =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (a : Atom.t) ->
      match a.values.(0) with
      | Value.String n -> Hashtbl.replace tbl n a
      | _ -> ())
    (Database.atoms db atype);
  tbl

let int_at (a : Atom.t) i = match a.values.(i) with Value.Int v -> Some v | _ -> None

let count_if f l = List.fold_left (fun n x -> if f x then n + 1 else n) 0 l

(* The effects of every acknowledged statement, in stream order per
   connection.  A statement the server answered with an error has no
   effect (and already counts as failed). *)
let acked_effects (w : Gen.t) (results : Served.conn_result array) =
  Array.to_list results
  |> List.concat_map (fun (r : Served.conn_result) ->
         List.filter_map
           (fun (o : Served.op) ->
             if o.ok then Some w.conns.(o.conn).stmts.(o.idx).effect else None)
           r.ops)

(* The names an effect list leaves alive and the ones it deleted, and
   the net change in their count. *)
let churn effects ~insert ~delete =
  let live = Hashtbl.create 64 and deleted = Hashtbl.create 64 in
  let net = ref 0 in
  List.iter
    (fun e ->
      match (insert e, delete e) with
      | Some (n, partner), _ ->
        incr net;
        Hashtbl.replace live n partner;
        Hashtbl.remove deleted n
      | None, Some n ->
        decr net;
        Hashtbl.remove live n;
        Hashtbl.replace deleted n ()
      | None, None -> ())
    effects;
  (live, deleted, !net)

(* Count, every live name linked to its partner, and no deleted name. *)
let check_churn db ~seeded ~atype ~link (live, deleted, net) =
  let atoms = atoms_by_name db atype in
  let bad = ref 0 in
  if Database.count_atoms db atype <> Database.count_atoms seeded atype + net then incr bad;
  Hashtbl.iter
    (fun n partner ->
      match Hashtbl.find_opt atoms n with
      | Some a when Database.link_exists db link ~left:a.Atom.id ~right:partner -> ()
      | _ -> incr bad)
    live;
  Hashtbl.iter (fun n () -> if Hashtbl.mem atoms n then incr bad) deleted;
  (atoms, !bad)

(* Each key's last written value must be the stored one. *)
let check_last atoms effects ~value ~index =
  let last = Hashtbl.create 64 in
  List.iter
    (fun e -> Option.iter (fun (k, v) -> Hashtbl.replace last k v) (value e))
    effects;
  Hashtbl.fold
    (fun k v bad ->
      match Hashtbl.find_opt atoms k with
      | Some a when int_at a index = Some v -> bad
      | _ -> bad + 1)
    last 0

(* bom-mixed: part count, every live inserted part with its composition
   link, no deleted part, each part's last written cost, and exactly the
   seeded links the writer has not unlinked. *)
let bom ~seeded db effects =
  let parts, bad =
    check_churn db ~seeded ~atype:"part" ~link:"composition"
      (churn effects
         ~insert:(function Gen.Insert_part (n, s) -> Some (n, s) | _ -> None)
         ~delete:(function Gen.Delete_part n -> Some n | _ -> None))
  in
  let unlinked = Hashtbl.create 16 in
  List.iter
    (function
      | Gen.Unlink_part (l, r) -> Hashtbl.replace unlinked (l, r) ()
      | Gen.Link_part (l, r) -> Hashtbl.remove unlinked (l, r)
      | _ -> ())
    effects;
  bad
  + check_last parts effects ~index:2
      ~value:(function Gen.Modify_cost (n, c) -> Some (n, c) | _ -> None)
  + count_if
      (fun (l, r) ->
        Database.link_exists db "composition" ~left:l ~right:r
        = Hashtbl.mem unlinked (l, r))
      (Database.links seeded "composition")

(* geo-write: city count, every live inserted city on its point, no
   deleted city, and each writer's last hectare per state. *)
let geo_write ~seeded db effects =
  let _, bad =
    check_churn db ~seeded ~atype:"city" ~link:"city-point"
      (churn effects
         ~insert:(function Gen.Insert_city (n, p) -> Some (n, p) | _ -> None)
         ~delete:(function Gen.Delete_city n -> Some n | _ -> None))
  in
  bad
  + check_last (atoms_by_name db "state") effects ~index:1
      ~value:(function Gen.Modify_hectare (s, v) -> Some (s, v) | _ -> None)

(* geo-read: reads must leave the seeded data as it was. *)
let unchanged ~seeded db =
  count_if
    (fun at -> Database.count_atoms db at <> Database.count_atoms seeded at)
    (Database.atom_type_names seeded)
  + count_if
      (fun lt -> Database.count_links db lt <> Database.count_links seeded lt)
      (Database.link_type_names seeded)

let store (w : Gen.t) ~seeded db results =
  let effects = acked_effects w results in
  match w.name with
  | "bom-mixed" -> bom ~seeded db effects
  | "geo-write" -> geo_write ~seeded db effects
  | _ -> unchanged ~seeded db

(* The reference rendering of a read: the digest of the same statement
   run by an in-process session on the seeded dump.  One reference
   serves every round of a run, since each round replays the same
   streams.  The reference session is reloaded every [fresh_every]
   distinct statements so its own type growth does not make the check
   slower than the run. *)
let reference (w : Gen.t) ~dump =
  let fresh_every = 200 in
  let known = Hashtbl.create 1024 in
  let session = ref None in
  let used = ref 0 in
  let get () =
    match !session with
    | Some s when !used < fresh_every -> s
    | _ ->
      let s =
        Mad_mql.Session.create ~obs:(Mad_obs.Obs.create ()) (Serialize.load_file dump)
      in
      List.iter (fun q -> ignore (Mad_mql.Session.run s q)) w.conns.(0).warmup;
      session := Some s;
      used := 0;
      s
  in
  fun text ->
    match Hashtbl.find_opt known text with
    | Some d -> d
    | None ->
      let s = get () in
      incr used;
      let d = Served.body_digest (Mad_mql.Session.run_to_string s text) in
      Hashtbl.replace known text d;
      d

(* Every read body must equal its reference rendering. *)
let bodies (w : Gen.t) expect results =
  Array.fold_left
    (fun bad (r : Served.conn_result) ->
      List.fold_left
        (fun bad (o : Served.op) ->
          if o.ok && o.cls = Gen.Read
             && not (String.equal o.body (expect w.conns.(o.conn).stmts.(o.idx).text))
          then bad + 1
          else bad)
        bad r.ops)
    0 results
