(** Seeded schedule perturbation; see the interface. *)

let seed_cell : int option Atomic.t = Atomic.make None
let seed () = Atomic.get seed_cell
let set_seed s = Atomic.set seed_cell s
let fired_cell = Atomic.make 0
let fired () = Atomic.get fired_cell

(* xorshift on 63-bit ints: each step is a bijection fixing 0, so a
   non-zero state never reaches 0 *)
let step x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  x lxor (x lsl 17)

type t = { mutable x : int; mask : int  (** spin counts are [x land mask] *) }

let create ~stream =
  match Atomic.get seed_cell with
  | None -> None
  | Some s ->
      let x = step (step (step ((s * 0x2545F4914F6CDD1D) lxor ((stream + 1) lsl 24)))) in
      let x = if x = 0 then 1 else x in
      (* PCT priority 0..3: up to 15, 31, 63 or 127 relaxes per point *)
      Some { x; mask = (16 lsl (x land 3)) - 1 }

let point t =
  let x = step t.x in
  t.x <- x;
  let n = (x lsr 20) land t.mask in
  if n > 0 then begin
    Atomic.incr fired_cell;
    for _ = 1 to n do
      Domain.cpu_relax ()
    done
  end
