(* Seeded workloads: the database each workload serves and the statement
   stream of each client connection.  Everything here is a pure
   function of (workload, seed); the server only ever sees the
   generated .mad dump and the generated statement texts. *)

open Mad_store
module Rng = Workloads.Rng

type cls = Read | Write

(* What an acknowledged statement must leave behind in the store: the
   reopen check folds these over every connection's acknowledged
   prefix.  Connections touch disjoint keys, so the fold order across
   connections does not matter. *)
type effect =
  | Pure
  | Insert_part of string * Aid.t  (** new part name, its sub-component *)
  | Delete_part of string
  | Modify_cost of string * int
  | Unlink_part of Aid.t * Aid.t
  | Link_part of Aid.t * Aid.t
  | Insert_city of string * Aid.t  (** city name, its point *)
  | Delete_city of string
  | Modify_hectare of string * int

type stmt = { text : string; cls : cls; effect : effect }

type conn = {
  warmup : string list;  (** catalog definitions, run before timing *)
  stmts : stmt array;
}

type t = {
  name : string;
  db : Database.t;  (** the seeded database, as dumped *)
  conns : conn array;
  check_bodies : bool;
      (** compare every read body with an in-process reference *)
}

let names = [ "geo-read"; "bom-mixed"; "geo-write" ]

(* Statements per connection in one round.  A run is a series of
   identical rounds: each serves a fresh copy of the seeded database and
   runs every connection's whole stream, so the work a round measures
   (and what the read path leaks over it) does not depend on how fast
   the host was.  A round takes about a second on a 2-core host. *)
let round_len = function "geo-read" -> 150 | "bom-mixed" -> 300 | _ -> 2000

(* The grid is the same for every seed, and the seed draws only the
   statement streams: the random rivers and cities of a seeded grid
   alone moved a geo-read round's store size by 9% and its latency by
   about as much from seed to seed. *)
let geo_params =
  {
    Workloads.Geo_gen.rows = 8;
    cols = 8;
    rivers = 8;
    river_len = 6;
    cities = 16;
    shared_rivers = true;
    seed = 1;
  }

let read text = { text; cls = Read; effect = Pure }
let write effect text = { text; cls = Write; effect }

let pick rng a = a.(Rng.int rng (Array.length a))

(* Statement kinds come in blocks that hold each kind a fixed number of
   times, in a seeded order: every stretch of a run then has the same
   mix, so the quantiles of a window (and the drift between the first
   and the last tenth) do not depend on which kinds a draw favoured. *)
let blocks rng block =
  let q = Queue.create () in
  fun () ->
    if Queue.is_empty q then begin
      let a = Array.copy block in
      for i = Array.length a - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      Array.iter (fun x -> Queue.add x q) a
    end;
    Queue.pop q

let cmp rng = pick rng [| "<"; ">"; "=" |]
let hectare rng = 100 + Rng.int rng 2000

(* --- geo-read: α, Σ, Π, Fig. 2 bottom-up, Ω of two Σs --------------- *)

let geo_read_stmt rng (g : Workloads.Geo_grid.t) kind =
  match kind with
  | 0 -> read (Printf.sprintf "SELECT ALL FROM %s;" (pick rng [| "mts"; "mtr" |]))
  | 1 ->
    read
      (Printf.sprintf "SELECT ALL FROM mts WHERE state.hectare %s %d;" (cmp rng)
         (hectare rng))
  | 2 -> read "SELECT state(name), area FROM mts;"
  | 3 ->
    read
      (Printf.sprintf
         "SELECT ALL FROM point-edge-(area-state,net-river) WHERE point.name = \
          'p%d_%d';"
         (Rng.int rng (g.cols + 1))
         (Rng.int rng (g.rows + 1)))
  | _ ->
    read
      (Printf.sprintf
         "SELECT ALL FROM mts WHERE state.hectare < %d UNION SELECT ALL FROM \
          mts WHERE state.hectare > %d;"
         (hectare rng) (hectare rng))

let geo_read seed =
  let g = Workloads.Geo_gen.build geo_params in
  let rng = Rng.create (seed lxor 0x5eed) in
  let conn () =
    let r = Rng.split rng in
    let kind = blocks r [| 0; 1; 2; 3; 4 |] in
    {
      warmup =
        [
          "DEFINE MOLECULE mts AS state-area-edge-point;";
          "DEFINE MOLECULE mtr AS river-net-edge-point;";
        ];
      stmts = Array.init (round_len "geo-read") (fun _ -> geo_read_stmt r g (kind ()));
    }
  in
  let c0 = conn () in
  let c1 = conn () in
  { name = "geo-read"; db = g.db; conns = [| c0; c1 |]; check_bodies = true }

(* --- bom-mixed: recursive reader beside a structural writer --------- *)

(* [share] 0: each part's children are fixed by its position, so the
   DAG has the same shape for every seed (a random shape alone moved
   throughput by about 18% from seed to seed). *)
let bom_params seed =
  { Workloads.Bom_gen.depth = 6; width = 32; fanout = 3; share = 0.0; seed }

(* Sub-component explosions start in the upper half of the DAG,
   where-used (SUPER) explosions in the lower half. *)
let bom_reader rng (p : Workloads.Bom_gen.params) =
  let kind =
    blocks rng [| (true, 2); (true, 3); (true, 4); (false, 2); (false, 3); (false, 4) |]
  in
  fun () ->
    let sub, depth = kind () in
    let half = p.depth / 2 in
    let level = if sub then Rng.int rng half else half + Rng.int rng half in
    read
      (Printf.sprintf
         "SELECT ALL FROM part RECURSIVE BY composition%s DEPTH %d WHERE \
          part.pname = 'P%d_%d';"
         (if sub then "" else " SUPER")
         depth level (Rng.int rng p.width))

(* The live set of one writer: the names it inserted (or was seeded
   with) and has not deleted yet. *)
type live = { mutable names : string array }

let take rng l =
  let n = Array.length l.names in
  let i = Rng.int rng n in
  let v = l.names.(i) in
  l.names.(i) <- l.names.(n - 1);
  l.names <- Array.sub l.names 0 (n - 1);
  v

let keep l name = l.names <- Array.append l.names [| name |]

(* Inserts and deletes come in equal numbers, with a floor (no delete
   from an empty set) and a cap (no insert into a full one), so the
   database a writer churns keeps its size over a long run: a latency
   that still grows is the engine's, not the workload's. *)
let churn_kind (l : live) cap k =
  let n = Array.length l.names in
  match k with
  | `Insert when n >= cap -> `Delete
  | `Delete when n = 0 -> `Insert
  | k -> k

(* The writer inserts and deletes its own super-components, modifies
   seeded costs, and toggles seeded composition links: at most
   [max_unlinked] seeded links are removed at a time. *)
let bom_writer rng (b : Workloads.Bom_gen.t) (p : Workloads.Bom_gen.params) =
  let max_unlinked = 8 and max_live = 32 in
  let links = Array.of_list (Database.links b.db "composition") in
  let unlinked = Queue.create () in
  let is_unlinked l = Queue.fold (fun acc x -> acc || x = l) false unlinked in
  let live = { names = [||] } and inserted = ref 0 in
  let kind =
    blocks rng
      [| `Insert; `Insert; `Delete; `Delete; `Modify; `Modify; `Modify;
         `Toggle; `Toggle; `Toggle |]
  in
  fun () ->
    match churn_kind live max_live (kind ()) with
    | `Insert ->
      let level = 1 + Rng.int rng (p.depth - 1) in
      let sub = b.levels.(level).(Rng.int rng p.width) in
      incr inserted;
      let name = Printf.sprintf "N%d" !inserted in
      keep live name;
      write (Insert_part (name, sub))
        (Printf.sprintf
           "INSERT INTO part VALUES ('%s', %d, %d) LINK composition @%d;" name
           (level - 1) (1 + Rng.int rng 100) sub)
    | `Delete ->
      let name = take rng live in
      write (Delete_part name)
        (Printf.sprintf "DELETE FROM mp(part) WHERE part.pname = '%s';" name)
    | `Modify ->
      let name =
        Printf.sprintf "P%d_%d" (Rng.int rng p.depth) (Rng.int rng p.width)
      in
      let cost = 1 + Rng.int rng 1000 in
      write (Modify_cost (name, cost))
        (Printf.sprintf
           "MODIFY part.cost = %d FROM mp(part) WHERE part.pname = '%s';" cost
           name)
    | `Toggle ->
      if Queue.length unlinked >= max_unlinked
         || ((not (Queue.is_empty unlinked)) && Rng.bool rng 0.5)
      then begin
        let l, r = Queue.pop unlinked in
        write (Link_part (l, r)) (Printf.sprintf "LINK composition @%d @%d;" l r)
      end
      else begin
        let rec fresh () =
          let l = pick rng links in
          if is_unlinked l then fresh () else l
        in
        let l, r = fresh () in
        Queue.add (l, r) unlinked;
        write (Unlink_part (l, r))
          (Printf.sprintf "UNLINK composition @%d @%d;" l r)
      end

let bom_mixed seed =
  let p = bom_params seed in
  let b = Workloads.Bom_gen.build p in
  let rng = Rng.create (seed lxor 0xb0b) in
  let next_read = bom_reader (Rng.split rng) p in
  let next_write = bom_writer (Rng.split rng) b p in
  let n = round_len "bom-mixed" in
  let reader = { warmup = []; stmts = Array.init n (fun _ -> next_read ()) } in
  let writer =
    {
      warmup = [ "DEFINE MOLECULE mp AS part;" ];
      stmts = Array.init n (fun _ -> next_write ());
    }
  in
  { name = "bom-mixed"; db = b.db; conns = [| reader; writer |]; check_bodies = false }

(* --- geo-write: city churn and hectare updates from two writers ----- *)

let random_point rng (g : Workloads.Geo_grid.t) =
  g.points.(Rng.int rng (g.cols + 1)).(Rng.int rng (g.rows + 1))

(* Writer [w] owns the cities named W<w>_<k> and the states whose grid
   index is congruent to [w] mod 2, so the two writers never touch the
   same key.  It starts with [start_live] seeded cities of its own and
   keeps at most [max_live]. *)
let start_live = 32
let max_live = 64

let seed_cities rng (g : Workloads.Geo_grid.t) w =
  let live = { names = [||] } in
  for k = 1 to start_live do
    let name = Printf.sprintf "W%d_%d" w k in
    ignore
      (Workloads.Geo_grid.add_city g ~name ~population:(1000 + Rng.int rng 1_000_000)
         (Rng.int rng (g.cols + 1), Rng.int rng (g.rows + 1)));
    keep live name
  done;
  live

let geo_writer rng (g : Workloads.Geo_grid.t) w live =
  let states =
    List.filteri (fun i _ -> i mod 2 = w) g.states |> List.map fst |> Array.of_list
  in
  let inserted = ref start_live in
  let kind =
    blocks rng
      [| `Insert; `Insert; `Insert; `Delete; `Delete; `Delete; `Modify; `Modify;
         `Modify; `Modify |]
  in
  fun () ->
    match churn_kind live max_live (kind ()) with
    | `Insert ->
      incr inserted;
      let name = Printf.sprintf "W%d_%d" w !inserted in
      let p = random_point rng g in
      keep live name;
      write (Insert_city (name, p))
        (Printf.sprintf
           "INSERT INTO city VALUES ('%s', %d) LINK city-point @%d;" name
           (1000 + Rng.int rng 1_000_000) p)
    | `Delete ->
      let name = take rng live in
      write (Delete_city name)
        (Printf.sprintf "DELETE FROM mc(city) WHERE city.name = '%s';" name)
    | `Modify ->
      let s = pick rng states in
      let v = hectare rng in
      write (Modify_hectare (s, v))
        (Printf.sprintf
           "MODIFY state.hectare = %d FROM mts(state-area-edge-point) WHERE \
            state.name = '%s';"
           v s)

let geo_write seed =
  let g = Workloads.Geo_gen.build geo_params in
  let rng = Rng.create (seed lxor 0x3e17e) in
  let conn w =
    let r = Rng.split rng in
    let next = geo_writer r g w (seed_cities r g w) in
    {
      warmup =
        [
          "DEFINE MOLECULE mts AS state-area-edge-point;";
          "DEFINE MOLECULE mc AS city;";
        ];
      stmts = Array.init (round_len "geo-write") (fun _ -> next ());
    }
  in
  let c0 = conn 0 in
  let c1 = conn 1 in
  { name = "geo-write"; db = g.db; conns = [| c0; c1 |]; check_bodies = false }

let build name seed =
  match name with
  | "geo-read" -> geo_read seed
  | "bom-mixed" -> bom_mixed seed
  | "geo-write" -> geo_write seed
  | other -> invalid_arg ("unknown workload " ^ other)

(* The identity of a connection's input: its warm-up and its whole
   generated stream. *)
let stream_hash (c : conn) =
  let b = Buffer.create (1 lsl 20) in
  List.iter (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') c.warmup;
  Array.iter (fun s -> Buffer.add_string b s.text; Buffer.add_char b '\n') c.stmts;
  Digest.to_hex (Digest.string (Buffer.contents b))
