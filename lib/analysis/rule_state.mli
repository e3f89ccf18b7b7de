(** R3 — concurrency discipline.

    Module-level [ref] cells are data races waiting for the pool:
    worker domains run task closures that may touch any module their
    library depends on.  The rule computes the set of units reachable
    (over [cmt] imports, transitively) from any unit that calls a
    [Ptrng_exec.Pool] combinator, and flags top-level [let x = ref ...]
    bindings there as errors — unless the unit is allowlisted
    ([lib/exec], [lib/telemetry], whose state is [Atomic.t] or
    mutex-guarded by construction) or creates a module-level mutex
    (the cheap "has a locking discipline" signal).  Module-level refs
    in {e unreachable} in-scope units are still reported, at [info]
    severity: they are one refactor away from being shared. *)

val rule : Rule.t
(** The R3 rule ([Error] when reachable from pool tasks, [Info]
    otherwise). *)

val pool_entry_points : string list
(** The four task-running [Ptrng_exec.Pool] combinators (R3 and R8). *)
