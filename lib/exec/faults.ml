(* Seeded fault injection for the sweep engine.

   The pool, cache and engine consult an optional [t] at well-defined
   boundaries (job start, job completion, cache read, cache write) and
   the hooks here decide — deterministically, from the seed and the
   call site — whether to simulate a worker crash, an execution stall,
   a torn cache write or a corrupted cache read. The same module backs
   both the test suite and the CLI chaos mode ([pc sweep
   --inject-faults SPEC]), so the paths exercised under injection are
   exactly the production ones.

   Determinism: every decision is a pure function of (seed, site,
   digest, draw index). Job-boundary draws are indexed by the attempt
   number, so a job that crashes on attempt 0 re-rolls on attempt 1;
   cache-I/O draws are indexed by a per-site operation counter, so a
   store that was torn once is not torn forever (the self-heal path
   must converge). Under parallel execution the *placement* of cache
   faults may vary with scheduling, but never the outcomes: a fault
   only ever forces a retry or a re-execution, both of which are pure
   functions of the spec. *)

exception Worker_crash of string
exception Sweep_killed of int

type t = {
  seed : int;
  crash : float;
  delay : float;
  delay_s : float;
  trunc : float;
  corrupt : float;
  max_transient : int;
  kill_after : int option;
  completed : int Atomic.t;
  write_ops : int Atomic.t;
  read_ops : int Atomic.t;
}

let make ?(seed = 0) ?(crash = 0.) ?(delay = 0.) ?(delay_s = 0.01)
    ?(trunc = 0.) ?(corrupt = 0.) ?(max_transient = 2) ?kill_after () =
  if max_transient < 0 then invalid_arg "Faults.make: max_transient < 0";
  {
    seed;
    crash;
    delay;
    delay_s;
    trunc;
    corrupt;
    max_transient;
    kill_after;
    completed = Atomic.make 0;
    write_ops = Atomic.make 0;
    read_ops = Atomic.make 0;
  }

let seed t = t.seed
let max_transient t = t.max_transient

(* ------------------------------------------------------------------ *)
(* The deterministic coin                                             *)

(* First 6 digest bytes as an integer in [0, 2^48), scaled to [0, 1).
   Plenty of entropy for a coin flip, and identical on every box. *)
let hash01 ~seed ~site ~digest index =
  let d =
    Digest.string (Printf.sprintf "pc-faults-%d|%s|%s|%d" seed site digest index)
  in
  let v = ref 0 in
  for i = 0 to 5 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  float_of_int !v /. 281474976710656.0 (* 2^48 *)

let draw t ~site ~digest index = hash01 ~seed:t.seed ~site ~digest index

(* ------------------------------------------------------------------ *)
(* Job-boundary hooks                                                 *)

(* Transient by construction: attempts at or beyond [max_transient]
   are never crashed or delayed, so any retry budget >= max_transient
   is guaranteed to recover every injected transient fault. *)
let pre_job t ~digest ~attempt =
  if attempt < t.max_transient then begin
    if t.delay > 0. && draw t ~site:"delay" ~digest attempt < t.delay then
      Unix.sleepf t.delay_s;
    if t.crash > 0. && draw t ~site:"crash" ~digest attempt < t.crash then
      raise (Worker_crash digest)
  end

let job_completed t =
  let n = Atomic.fetch_and_add t.completed 1 + 1 in
  match t.kill_after with
  | Some k when n >= k -> raise (Sweep_killed n)
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Cache-I/O hooks                                                    *)

let mangle_write t ~digest content =
  let op = Atomic.fetch_and_add t.write_ops 1 in
  if t.trunc > 0. && draw t ~site:"trunc" ~digest op < t.trunc then begin
    let keep = String.length content / 2 in
    Some (String.sub content 0 keep)
  end
  else None

let mangle_read t ~digest content =
  let op = Atomic.fetch_and_add t.read_ops 1 in
  if t.corrupt > 0. && draw t ~site:"corrupt" ~digest op < t.corrupt then begin
    (* Flip a byte in the middle: enough to break either the JSON
       framing or a field the reader validates. *)
    let b = Bytes.of_string content in
    let i = Bytes.length b / 2 in
    if Bytes.length b > 0 then
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x7f));
    Some (Bytes.to_string b)
  end
  else None

(* ------------------------------------------------------------------ *)
(* Spec strings                                                       *)

let to_string t =
  String.concat ","
    (List.filter
       (fun s -> s <> "")
       [
         Printf.sprintf "seed=%d" t.seed;
         (if t.crash > 0. then Printf.sprintf "crash=%g" t.crash else "");
         (if t.delay > 0. then Printf.sprintf "delay=%g" t.delay else "");
         (if t.delay > 0. then Printf.sprintf "delay-s=%g" t.delay_s else "");
         (if t.trunc > 0. then Printf.sprintf "trunc=%g" t.trunc else "");
         (if t.corrupt > 0. then Printf.sprintf "corrupt=%g" t.corrupt else "");
         Printf.sprintf "max-transient=%d" t.max_transient;
         (match t.kill_after with
         | Some k -> Printf.sprintf "kill-after=%d" k
         | None -> "");
       ])

let of_string s =
  let parse_field acc field =
    match acc with
    | Error _ as e -> e
    | Ok t -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "bad fault field %S (expected k=v)" field)
        | Some i -> (
            let k = String.sub field 0 i in
            let v = String.sub field (i + 1) (String.length field - i - 1) in
            let prob name =
              match float_of_string_opt v with
              | Some p when p >= 0. && p <= 1. -> Ok p
              | Some _ | None ->
                  Error
                    (Printf.sprintf "%s=%s: expected a probability in [0,1]"
                       name v)
            in
            let num name =
              match float_of_string_opt v with
              | Some f when f >= 0. -> Ok f
              | Some _ | None ->
                  Error (Printf.sprintf "%s=%s: expected a number >= 0" name v)
            in
            let int name =
              match int_of_string_opt v with
              | Some i when i >= 0 -> Ok i
              | Some _ | None ->
                  Error (Printf.sprintf "%s=%s: expected an int >= 0" name v)
            in
            match k with
            | "seed" -> Result.map (fun i -> { t with seed = i }) (int k)
            | "crash" -> Result.map (fun p -> { t with crash = p }) (prob k)
            | "delay" -> Result.map (fun p -> { t with delay = p }) (prob k)
            | "delay-s" | "delay_s" ->
                Result.map (fun f -> { t with delay_s = f }) (num k)
            | "trunc" -> Result.map (fun p -> { t with trunc = p }) (prob k)
            | "corrupt" -> Result.map (fun p -> { t with corrupt = p }) (prob k)
            | "max-transient" | "max_transient" ->
                Result.map (fun i -> { t with max_transient = i }) (int k)
            | "kill-after" | "kill_after" ->
                Result.map (fun i -> { t with kill_after = Some i }) (int k)
            | _ -> Error (Printf.sprintf "unknown fault field %S" k)))
  in
  let fields =
    List.filter (fun f -> f <> "") (String.split_on_char ',' (String.trim s))
  in
  if fields = [] then Error "empty fault spec"
  else List.fold_left parse_field (Ok (make ())) fields
