(** Facade: translate + build + load, one call for the executor. *)

module Precompile = Commset_runtime.Precompile

type compiled = {
  cg_fn : Abi.iter_fn;
  cg_key : string;
  cg_cache_hit : bool;
  cg_compile_s : float;
  cg_ml_path : string option;
}

let source ~prepared ~rt () = Emit.emit ~prepared ~rt ()

let prepare ~prepared ~rt () : (compiled, string) result =
  match Emit.emit ~prepared ~rt () with
  | Error _ as e -> e
  | Ok src -> (
      match Build.load ~source:src with
      | Error _ as e -> e
      | Ok c ->
          Ok
            {
              cg_fn = c.Build.c_fn;
              cg_key = c.Build.c_key;
              cg_cache_hit = c.Build.c_cache_hit;
              cg_compile_s = c.Build.c_compile_s;
              cg_ml_path = c.Build.c_ml_path;
            })

let key_of_source = Build.key_of_source
let cache_dir = Build.cache_dir
let cache_paths = Build.cache_paths
let reset_memo = Build.reset_memo
