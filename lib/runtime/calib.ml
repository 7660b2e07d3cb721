(** Calibration profiles; see the interface. *)

module J = Commset_obs.Json_strict

type builtin_calib = {
  cb_name : string;
  cb_calls : int;
  cb_mean_ns : float;
  cb_mean_cycles : float;
  cb_scale : float;
}

type profile = {
  p_workload : string;
  p_engine : string;
  p_jobs : int;
  p_ns_per_cycle : float;
  p_builtins : builtin_calib list;
  p_predicted : float;
  p_measured : float;
}

let default_dir = Filename.concat "_build" "calib"

let dir () =
  match Sys.getenv_opt "COMMSET_CALIB_DIR" with
  | Some d when String.trim d <> "" -> d
  | _ -> default_dir

let sanitize name =
  String.map (fun c -> if c = '/' || c = '\\' || c = ':' then '_' else c) name

let path ~workload = Filename.concat (dir ()) (sanitize workload ^ ".calib.json")

(* scale clamp: a measured/charged ratio outside this band says the
   measurement is noise (a calls=1 builtin hit by a context switch), not
   that the cost model is off by that much *)
let scale_min = 0.05
let scale_max = 20.

let of_summary ~workload ~engine ~predicted ~measured (s : Commset_obs.Attrib.summary) =
  let open Commset_obs.Attrib in
  let builtin_cycles =
    List.fold_left (fun acc b -> acc +. b.b_cost_cycles) 0. s.a_builtins
  in
  let non_builtin_cycles = s.a_charged_cycles -. builtin_cycles in
  if s.a_charged_cycles <= 0. then Error "run retired no charged cycles"
  else if non_builtin_cycles <= 0. || s.a_compute_ns <= 0. then
    Error "run measured no non-builtin compute"
  else begin
    let ns_per_cycle = s.a_compute_ns /. non_builtin_cycles in
    let builtins =
      List.filter_map
        (fun b ->
          if b.b_calls <= 0 then None
          else
            let calls = float_of_int b.b_calls in
            let mean_ns = b.b_wall_ns /. calls in
            let mean_cycles = b.b_cost_cycles /. calls in
            if mean_cycles <= 0. then None
            else
              let implied_cycles = mean_ns /. ns_per_cycle in
              let scale =
                Float.min scale_max (Float.max scale_min (implied_cycles /. mean_cycles))
              in
              Some
                {
                  cb_name = b.b_name;
                  cb_calls = b.b_calls;
                  cb_mean_ns = mean_ns;
                  cb_mean_cycles = mean_cycles;
                  cb_scale = scale;
                })
        s.a_builtins
    in
    Ok
      {
        p_workload = workload;
        p_engine = engine;
        p_jobs = s.a_jobs;
        p_ns_per_cycle = ns_per_cycle;
        p_builtins = builtins;
        p_predicted = predicted;
        p_measured = measured;
      }
  end

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

(* %.17g round-trips every finite float; the strict parser accepts the
   exponent forms it can produce *)
let fnum v = Printf.sprintf "%.17g" (if Float.is_finite v then v else 0.)
let str s = "\"" ^ Commset_obs.Metrics.json_escape s ^ "\""

let to_json p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"workload\": %s,\n" (str p.p_workload));
  Buffer.add_string buf (Printf.sprintf "  \"engine\": %s,\n" (str p.p_engine));
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" p.p_jobs);
  Buffer.add_string buf (Printf.sprintf "  \"ns_per_cycle\": %s,\n" (fnum p.p_ns_per_cycle));
  Buffer.add_string buf (Printf.sprintf "  \"predicted_speedup\": %s,\n" (fnum p.p_predicted));
  Buffer.add_string buf (Printf.sprintf "  \"measured_speedup\": %s,\n" (fnum p.p_measured));
  Buffer.add_string buf "  \"builtins\": [";
  List.iteri
    (fun i b ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"name\": %s, \"calls\": %d, \"mean_ns\": %s, \"mean_cycles\": %s, \
            \"scale\": %s }"
           (str b.cb_name) b.cb_calls (fnum b.cb_mean_ns) (fnum b.cb_mean_cycles)
           (fnum b.cb_scale)))
    p.p_builtins;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let jstr = function Some (J.Str s) -> Some s | _ -> None
let jnum = function Some (J.Num n) -> Some n | _ -> None

let of_json s =
  match J.parse s with
  | Error e -> Error ("calibration profile: " ^ e)
  | Ok j -> (
      let m k = J.member k j in
      match (jstr (m "workload"), jstr (m "engine"), jnum (m "jobs"), jnum (m "ns_per_cycle"))
      with
      | Some workload, Some engine, Some jobs, Some npc ->
          let builtins =
            match m "builtins" with
            | Some (J.Arr bs) ->
                List.filter_map
                  (fun b ->
                    let bm k = J.member k b in
                    match
                      ( jstr (bm "name"),
                        jnum (bm "calls"),
                        jnum (bm "mean_ns"),
                        jnum (bm "mean_cycles"),
                        jnum (bm "scale") )
                    with
                    | Some name, Some calls, Some mean_ns, Some mean_cycles, Some scale ->
                        Some
                          {
                            cb_name = name;
                            cb_calls = int_of_float calls;
                            cb_mean_ns = mean_ns;
                            cb_mean_cycles = mean_cycles;
                            cb_scale = scale;
                          }
                    | _ -> None)
                  bs
            | _ -> []
          in
          Ok
            {
              p_workload = workload;
              p_engine = engine;
              p_jobs = int_of_float jobs;
              p_ns_per_cycle = npc;
              p_builtins = builtins;
              p_predicted = Option.value ~default:0. (jnum (m "predicted_speedup"));
              p_measured = Option.value ~default:0. (jnum (m "measured_speedup"));
            }
      | _ -> Error "calibration profile: missing workload/engine/jobs/ns_per_cycle")

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let save p =
  let file = path ~workload:p.p_workload in
  try
    mkdir_p (Filename.dirname file);
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_json p));
    Ok file
  with Sys_error e -> Error e

let load ~workload =
  let file = path ~workload in
  if not (Sys.file_exists file) then Error (Printf.sprintf "no calibration profile at %s" file)
  else
    try
      let ic = open_in_bin file in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      of_json s
    with Sys_error e -> Error e

let apply p =
  Builtins.set_cost_scales (List.map (fun b -> (b.cb_name, b.cb_scale)) p.p_builtins)

let clear () = Builtins.clear_cost_scales ()
