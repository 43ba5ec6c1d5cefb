(* The source lint, over the typed trees (.cmt) that dune writes for
   lib/, bin/, bench/, perfbench/ and examples/.  Tests are not read, so
   a name or module that only tests use is dead code.  Four rules:

   - unused names: every top-level value of a lib/ .ml file is read
     somewhere other than its own definition;
   - orphan modules: every lib/ module is imported by a unit other than
     itself;
   - Sim-free core: Protocol.Core and Protocol.Invariants depend on no
     Sim or Mchan unit, directly or through an interface they read, so a
     checker can drive them alone;
   - no environment switches: no lib/ or bin/ code reads Sys.getenv or
     Sys.getenv_opt; every knob belongs in a config record or a CLI flag.

   A read is a typed identifier, whose declaration carries the location
   of its definition, so module aliases, opens, local opens and includes
   all resolve exactly, and comments and string literals never count.

   Usage: lint.exe ROOT, where ROOT is the build context's root.  Prints
   one line per violation and exits 1 if there is any. *)

open Typedtree

let dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

(* Unused names allowed to stay, each with its reason. *)
let keep =
  [ ( "Check.Explore.schedule_of_decisions",
      "the replay API that litmus's DPOR failure lines name" ) ]

let rec cmts dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then cmts p
         else if Filename.check_suffix f ".cmt" then [ p ]
         else [])

type cu = { src : string; modname : string; imports : string list; str : structure }

(* Units compiled from a .ml file; dune's generated alias modules are not. *)
let units root =
  List.concat_map (fun d -> cmts (Filename.concat root d)) dirs
  |> List.filter_map (fun p ->
         let c = Cmt_format.read_cmt p in
         match (c.cmt_sourcefile, c.cmt_annots) with
         | Some src, Implementation str when Filename.check_suffix src ".ml" ->
           Some { src; modname = c.cmt_modname; imports = List.map fst c.cmt_imports; str }
         | _ -> None)

let in_dir d src = String.starts_with ~prefix:(d ^ "/") src

(* Check__Explore -> Check.Explore *)
let display m =
  let n = String.length m in
  let rec go i =
    if i + 1 >= n then m
    else if m.[i] = '_' && m.[i + 1] = '_' then
      String.sub m 0 i ^ "." ^ String.sub m (i + 2) (n - i - 2)
    else go (i + 1)
  in
  go 0

type def = { q : string; file : string; line : int; mutable used : bool }

let () =
  let units = units (if Array.length Sys.argv > 1 then Sys.argv.(1) else ".") in
  let lib = List.filter (fun u -> in_dir "lib" u.src) units in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* Top-level lib values, keyed by the position of their name, and by
     file and name for reads through an .mli, which declares the last
     definition of a name. *)
  let at = Hashtbl.create 1024 and by_name = Hashtbl.create 1024 in
  let pos (n : string Location.loc) = (n.loc.loc_start.pos_fname, n.loc.loc_start.pos_cnum) in
  let defs =
    List.concat_map
      (fun u ->
        List.concat_map
          (fun item ->
            match item.str_desc with
            | Tstr_value (_, vbs) ->
              List.map
                (fun (_, (n : string Location.loc), _) ->
                  let q = display u.modname ^ "." ^ n.txt in
                  let d = { q; file = u.src; line = n.loc.loc_start.pos_lnum; used = false } in
                  Hashtbl.replace at (pos n) d;
                  Hashtbl.replace by_name (u.src, n.txt) d;
                  d)
                (let_bound_idents_full vbs)
            | _ -> [])
          u.str.str_items)
      lib
  in
  let resolve path (vd : Types.value_description) =
    let p = vd.val_loc.loc_start in
    if Filename.check_suffix p.pos_fname ".mli" then
      Hashtbl.find_opt by_name (Filename.chop_suffix p.pos_fname ".mli" ^ ".ml", Path.last path)
    else Hashtbl.find_opt at (p.pos_fname, p.pos_cnum)
  in
  List.iter
    (fun u ->
      (* The definitions whose own body is being walked: they are not
         their own readers. *)
      let self = ref [] in
      let expr it e =
        (match e.exp_desc with
         | Texp_ident (path, _, vd) ->
           (match resolve path vd with
            | Some d when not (List.memq d !self) -> d.used <- true
            | _ -> ());
           let name = Path.last path in
           if (name = "getenv" || name = "getenv_opt")
              && Filename.basename vd.val_loc.loc_start.pos_fname = "sys.mli"
              && (in_dir "lib" u.src || in_dir "bin" u.src)
           then error "%s:%d: environment switch Sys.%s" u.src e.exp_loc.loc_start.pos_lnum name
         | _ -> ());
        Tast_iterator.default_iterator.expr it e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      List.iter
        (fun item ->
          match item.str_desc with
          | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                self :=
                  List.filter_map
                    (fun (_, n, _) -> Hashtbl.find_opt at (pos n))
                    (let_bound_idents_full [ vb ]);
                it.value_binding it vb)
              vbs;
            self := []
          | _ -> it.structure_item it item)
        u.str.str_items)
    units;
  let unused = List.filter (fun d -> not d.used) defs in
  List.iter
    (fun d -> if not (List.mem_assoc d.q keep) then error "%s:%d: unused name %s" d.file d.line d.q)
    unused;
  List.iter
    (fun (q, _) ->
      if not (List.exists (fun d -> d.q = q) unused) then error "keep entry %s is read or gone" q)
    keep;
  List.iter
    (fun u ->
      if not (List.exists (fun v -> v.modname <> u.modname && List.mem u.modname v.imports) units)
      then error "%s: orphan module %s" u.src (display u.modname);
      (* Imports include those of every interface a unit reads, so a Sim
         dependency of Core shows in Invariants too. *)
      if u.modname = "Protocol__Core" || u.modname = "Protocol__Invariants" then
        List.iter
          (fun i ->
            match String.split_on_char '_' i with
            | ("Sim" | "Mchan") :: _ -> error "%s: depends on %s" u.src (display i)
            | _ -> ())
          u.imports)
    lib;
  List.iter prerr_endline (List.sort_uniq compare !errors);
  if !errors <> [] then exit 1
