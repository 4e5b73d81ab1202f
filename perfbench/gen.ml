(* Workload definitions and deterministic op generation.

   The store each workload preloads is fixed (it does not depend on the
   seed), so set-up does the same work on every run.  The seed drives
   only the timed phase's op stream.  Every connection draws from its
   own DRBG, keyed by workload, seed and connection index, so a stream
   is byte-identical across runs with the same seed. *)

module Message = Tep_wire.Message
module Value = Tep_store.Value
module Drbg = Tep_crypto.Drbg

type workload = Ingest | Prove_read | Mixed | Audit

let workloads = [ Ingest; Prove_read; Mixed; Audit ]

let name = function
  | Ingest -> "ingest"
  | Prove_read -> "prove_read"
  | Mixed -> "mixed"
  | Audit -> "audit"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* Every table has two int columns: narrow rows keep the per-insert
   signing work (two cells, the row, the table, the root) the same
   across workloads, so only table width and op mix differ. *)
let columns = "a@int,b@int"
let ncols = 2

(* (table name, preloaded rows) *)
let tables = function
  | Ingest -> List.init 16 (fun i -> (Printf.sprintf "t%02d" i, 16))
  | Prove_read | Mixed -> [ ("wide", 1024) ]
  | Audit -> List.init 4 (fun i -> (Printf.sprintf "a%d" i, 128))

let preload_rows w = List.fold_left (fun n (_, r) -> n + r) 0 (tables w)

(* Preloaded rows are listed table by table, so rows of one table are
   appended in order; the values are a fixed function of position. *)
let preload w =
  List.concat
    (List.mapi
       (fun ti (table, rows) ->
         List.init rows (fun r ->
             Message.Op_insert
               { table; cells = [| Value.Int r; Value.Int ((ti * 7919) + (r * 31)) |] }))
       (tables w))

(* Connections the timed phase opens, and how many ops each keeps in
   flight.  At most two, the host's core count, so the load generator
   never runs more domains than cores. *)
let connections = function Ingest | Prove_read | Mixed -> 2 | Audit -> 1

(* The connections whose ops the latency metrics cover: mixed's reader
   only, since its writer's pace is set by the reader (see Load). *)
let latency_conns w = match w with Mixed -> [ 1 ] | _ -> List.init (connections w) Fun.id
let depth = function Ingest -> 4 | Prove_read | Mixed | Audit -> 1

type op =
  | Write of Message.op
  | Read of { table : string; row : int; col : int }
      (** pin the root, prove one cell, check the proof *)
  | Full_verify  (** the root object plus a whole-store audit *)

let hot_set_size = 128

(* The prove_read hot set: 128 distinct cells of the wide table, fixed
   across seeds, small enough for the server's 256-entry proof LRU. *)
let hot_cells =
  lazy
    (let d = Drbg.create ~seed:"perfbench/hot-set" in
     let rows = 1024 in
     let seen = Hashtbl.create hot_set_size in
     let rec draw acc n =
       if n = hot_set_size then Array.of_list (List.rev acc)
       else
         let cell = Drbg.uniform_int d (rows * ncols) in
         if Hashtbl.mem seen cell then draw acc n
         else begin
           Hashtbl.add seen cell ();
           draw ((cell / ncols, cell mod ncols) :: acc) (n + 1)
         end
     in
     draw [] 0)

let uniform_read d =
  let rows = 1024 in
  Read { table = "wide"; row = Drbg.uniform_int d rows; col = Drbg.uniform_int d ncols }

let value d = Value.Int (Drbg.uniform_int d 1_000_000)

(* The infinite op stream of connection [conn].  Mixed's connection 0
   is its writer, connection 1 its reader. *)
let stream w ~seed ~conn : op Seq.t =
  let d = Drbg.create ~seed:(Printf.sprintf "perfbench/ops/%s/%d/%d" (name w) seed conn) in
  let next k =
    match w with
    | Ingest ->
        (* round-robin over the tables; the two connections start half
           the table list apart *)
        let ts = tables Ingest in
        let table, _ = List.nth ts ((k + (conn * List.length ts / 2)) mod List.length ts) in
        let a = value d in
        let b = value d in
        Write (Message.Op_insert { table; cells = [| a; b |] })
    | Prove_read ->
        if Drbg.uniform_int d 10 < 9 then
          let hot = Lazy.force hot_cells in
          let row, col = hot.(Drbg.uniform_int d hot_set_size) in
          Read { table = "wide"; row; col }
        else uniform_read d
    | Mixed ->
        if conn = 0 then
          let row = Drbg.uniform_int d 1024 in
          let col = Drbg.uniform_int d ncols in
          Write (Message.Op_update { table = "wide"; row; col; value = value d })
        else uniform_read d
    | Audit -> Full_verify
  in
  Seq.map next (Seq.ints 0)

(* An op as a request, for byte-level comparison of streams.  Writes
   appear as plain [Submit]; the client sends them as [Submit_idem]
   under a fresh request id (see Layers). *)
let request = function
  | Write op -> Message.Submit op
  | Read { table; row; col } -> Message.Prove { table; row; col = Some col }
  | Full_verify -> Message.Verify None

let encode ops =
  let buf = Buffer.create 4096 in
  List.iter (fun op -> Message.encode_request buf (request op)) ops;
  Buffer.contents buf

(* Timed-phase length in ops, per connection (for mixed, of its
   reader).  Runs end after a fixed number of ops rather than a fixed
   time: an ingest store grows with
   every insert and the per-insert hash cost grows with table width, so
   a fixed count keeps the final store, and with it the per-op work,
   the same on every run.  The rates are the nominal ops/s of one
   connection on a 2-core host, so a run lasts about [seconds]. *)
let nominal_rate = function
  | Ingest -> 100.
  | Prove_read -> 170.
  | Mixed -> 64.
  | Audit -> 12.

let ops_per_conn w ~seconds = max 20 (int_of_float (nominal_rate w *. seconds))
