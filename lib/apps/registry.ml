(* Every workload program registers itself when its module initialises,
   and this library links whole, so there is nothing left to do here. *)
let register_all () = ()
