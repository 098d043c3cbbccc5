(** ParGeant4: a TOP-C-style master/worker task farm (paper §5.2), the
    scaling workload of Figure 5.

    Rank 0 is the TOP-C master holding the event queue; workers request
    events, simulate them (compute whose cost varies per event), and
    return partial sums.  Verification: the master recomputes the total
    independently and compares — any event lost or double-processed
    across a checkpoint or restart breaks it.

    Program ["apps:pargeant4"]; extra rank argv: [[nevents]]. *)


val prog_name : string
