(** Deterministic fault plans for the simulated Memory Channel.

    See the interface for the model.  Each directed link owns a
    splitmix64 stream whose initial state is a pure function of
    [(seed, src, dst)], so the verdict sequence on a link depends only
    on the seed and on how many frames that link has carried — not on
    when other links first drew, which keeps whole-cluster runs
    reproducible from a single integer. *)

type link_faults = {
  drop : float;
  dup : float;
  corrupt : float;
  delay : float;
  delay_max : float;
}

let no_faults = { drop = 0.0; dup = 0.0; corrupt = 0.0; delay = 0.0; delay_max = 0.0 }

type outage = { node : int; from_t : float; until_t : float }

let stall ~node ~at ~duration =
  if not (at >= 0.0 && duration >= 0.0) then invalid_arg "Plan.stall: negative or NaN time";
  { node; from_t = at; until_t = at +. duration }

let crash ~node ~at =
  if not (at >= 0.0) then invalid_arg "Plan.crash: negative or NaN time";
  { node; from_t = at; until_t = infinity }

type action = Deliver | Drop | Duplicate | Corrupt | Delay of float

type t = {
  seed : int;
  default : link_faults;
  links : ((int * int) * link_faults) list;
  outages : outage list;
  streams : (int * int, Sim.Rng.t) Hashtbl.t;
}

let check_faults lf =
  let p name x =
    if not (x >= 0.0 && x <= 1.0) then
      invalid_arg (Printf.sprintf "Plan.create: %s=%g outside [0,1]" name x)
  in
  p "drop" lf.drop;
  p "dup" lf.dup;
  p "corrupt" lf.corrupt;
  p "delay" lf.delay;
  if lf.drop +. lf.dup +. lf.corrupt +. lf.delay > 1.0 then
    invalid_arg "Plan.create: fault probabilities sum above 1";
  if not (lf.delay_max >= 0.0 && Float.is_finite lf.delay_max) then
    invalid_arg "Plan.create: delay_max must be finite and non-negative"

let create ?(seed = 0) ?(default = no_faults) ?(links = []) ?(outages = []) () =
  check_faults default;
  List.iter (fun (_, lf) -> check_faults lf) links;
  { seed; default; links; outages; streams = Hashtbl.create 16 }

let empty = create ()

let is_empty t =
  t.default = no_faults
  && List.for_all (fun (_, lf) -> lf = no_faults) t.links
  && t.outages = []

let faults_for t ~src ~dst =
  match List.assoc_opt (src, dst) t.links with Some lf -> lf | None -> t.default

(* The stream state mixes the link endpoints into the seed; splitmix64
   diffuses any distinct starting state into an independent-looking
   sequence, so simple integer mixing suffices here. *)
let stream t ~src ~dst =
  match Hashtbl.find_opt t.streams (src, dst) with
  | Some r -> r
  | None ->
      let state = (t.seed * 0x1000003) lxor ((src * 0x7F4A7C15) + dst + 1) in
      let r = Sim.Rng.create state in
      Hashtbl.replace t.streams (src, dst) r;
      r

let decide t ~src ~dst =
  let lf = faults_for t ~src ~dst in
  if lf = no_faults then Deliver
  else begin
    let r = stream t ~src ~dst in
    let x = Sim.Rng.float r 1.0 in
    if x < lf.drop then Drop
    else if x < lf.drop +. lf.dup then Duplicate
    else if x < lf.drop +. lf.dup +. lf.corrupt then Corrupt
    else if x < lf.drop +. lf.dup +. lf.corrupt +. lf.delay then
      Delay (Sim.Rng.float r lf.delay_max)
    else Deliver
  end

let node_down t ~node ~at =
  List.exists (fun o -> o.node = node && at >= o.from_t && at < o.until_t) t.outages

let check_nodes t ~nodes =
  List.iter
    (fun n ->
      if n < 0 || n >= nodes then
        invalid_arg (Printf.sprintf "Plan: node %d is not in the cluster (nodes 0..%d)" n (nodes - 1)))
    (List.map (fun o -> o.node) t.outages @ List.concat_map (fun ((s, d), _) -> [ s; d ]) t.links)

(* --- spec parsing --- *)

let bad fmt = Printf.ksprintf invalid_arg ("Plan.of_spec: " ^^ fmt)

let float_of s = match float_of_string_opt s with Some f -> f | None -> bad "bad number %S" s
let int_of s = match int_of_string_opt s with Some i -> i | None -> bad "bad integer %S" s

(* "NODE@AT" or "NODE@AT:DURATION" *)
let parse_at s =
  match String.split_on_char '@' s with
  | [ node; rest ] -> (int_of node, rest)
  | _ -> bad "expected NODE@TIME in %S" s

let default_delay_max = 20.0e-6

let apply_fault_key lf key value =
  match key with
  | "drop" -> { lf with drop = float_of value }
  | "dup" -> { lf with dup = float_of value }
  | "corrupt" -> { lf with corrupt = float_of value }
  | "delay" -> (
      match String.split_on_char ':' value with
      | [ p ] -> { lf with delay = float_of p; delay_max = default_delay_max }
      | [ p; mx ] -> { lf with delay = float_of p; delay_max = float_of mx }
      | _ -> bad "bad delay spec %S" value)
  | _ -> bad "unknown key %S" key

let of_spec spec =
  let seed = ref 0 in
  let default = ref no_faults in
  let links = ref [] in
  let outages = ref [] in
  let entry e =
    match String.index_opt e '=' with
    | None -> if e <> "" then bad "expected KEY=VALUE, got %S" e
    | Some i -> (
        let key = String.sub e 0 i in
        let value = String.sub e (i + 1) (String.length e - i - 1) in
        match key with
        | "seed" -> seed := int_of value
        | "drop" | "dup" | "corrupt" | "delay" -> default := apply_fault_key !default key value
        | "stall" ->
            let node, rest = parse_at value in
            (match String.split_on_char ':' rest with
            | [ at; dur ] -> outages := stall ~node ~at:(float_of at) ~duration:(float_of dur) :: !outages
            | _ -> bad "expected stall=NODE@AT:DURATION in %S" e)
        | "crash" ->
            let node, at = parse_at value in
            outages := crash ~node ~at:(float_of at) :: !outages
        | "link" -> (
            (* link=SRC-DST:KEY=V;KEY=V... *)
            match String.index_opt value ':' with
            | None -> bad "expected link=SRC-DST:KEY=V in %S" e
            | Some j ->
                let ends = String.sub value 0 j in
                let body = String.sub value (j + 1) (String.length value - j - 1) in
                let src, dst =
                  match String.split_on_char '-' ends with
                  | [ s; d ] -> (int_of s, int_of d)
                  | _ -> bad "expected SRC-DST in %S" ends
                in
                let lf =
                  List.fold_left
                    (fun lf kv ->
                      match String.index_opt kv '=' with
                      | Some i ->
                          apply_fault_key lf (String.sub kv 0 i)
                            (String.sub kv (i + 1) (String.length kv - i - 1))
                      | None -> bad "expected KEY=V in %S" kv)
                    no_faults (String.split_on_char ';' body)
                in
                links := ((src, dst), lf) :: !links)
        | _ -> bad "unknown key %S" key)
  in
  List.iter entry (String.split_on_char ',' spec);
  create ~seed:!seed ~default:!default ~links:(List.rev !links) ~outages:(List.rev !outages) ()

let pp_faults ppf lf =
  Format.fprintf ppf "drop=%g dup=%g corrupt=%g delay=%g(max %gs)" lf.drop lf.dup lf.corrupt
    lf.delay lf.delay_max

let pp ppf t =
  if is_empty t then Format.fprintf ppf "fault plan: none"
  else begin
    Format.fprintf ppf "fault plan (seed %d): %a" t.seed pp_faults t.default;
    List.iter
      (fun ((s, d), lf) -> Format.fprintf ppf "; link %d->%d: %a" s d pp_faults lf)
      t.links;
    List.iter
      (fun o ->
        if o.until_t = infinity then Format.fprintf ppf "; crash node %d @%gs" o.node o.from_t
        else Format.fprintf ppf "; stall node %d @%gs for %gs" o.node o.from_t (o.until_t -. o.from_t))
      t.outages
  end
