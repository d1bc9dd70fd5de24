#!/usr/bin/env python
"""Tour of the observability layer at the paper's Figure 1 point.

Runs ABD and CAS at N=21, f=10 with a SimObserver attached, then puts
the *measured* storage occupancy next to the paper's lower-bound
curves evaluated at the same ``(N, f, nu)``:

1. instrument each system and drive the standard seeded random
   workload;
2. read the per-step ``storage.total_bits`` series the observer
   sampled, normalize its peak by ``log2 |V|``;
3. compare against Theorems B.1 / 5.1 / 6.5 at the run's own observed
   write concurrency ``nu``;
4. show the per-phase span breakdown the same telemetry gives for free.

Run:  python examples/metrics_tour.py
"""

from repro.analysis.figure1 import FIGURE1_F, FIGURE1_N
from repro.core.bounds import evaluate_bounds
from repro.obs.analytics import max_concurrent_writes
from repro.obs.recorder import SimObserver
from repro.registers.abd import build_abd_system
from repro.registers.cas import build_cas_system
from repro.util.tables import format_table
from repro.workload.generator import run_random_workload

N, F, VALUE_BITS = FIGURE1_N, FIGURE1_F, 8
NUM_OPS, SEED = 14, 1


def instrumented_run(name):
    """Attach an observer, run the seeded workload; return both."""
    build = build_abd_system if name == "abd" else build_cas_system
    handle = build(n=N, f=F, value_bits=VALUE_BITS, num_writers=3, num_readers=2)
    observer = handle.world.obs = SimObserver()
    result = run_random_workload(handle, num_ops=NUM_OPS, seed=SEED)
    nu = max(1, max_concurrent_writes(handle.world.operations))
    return observer, result, nu


def main() -> None:
    print(f"observability tour at the Figure 1 point: N={N}, f={F}, "
          f"|V|=2^{VALUE_BITS}, {NUM_OPS} ops, seed {SEED}\n")

    runs = {name: instrumented_run(name) for name in ("abd", "cas")}

    # -- observed peak storage vs the Figure 1 bound curves ------------------
    rows = []
    for name, (observer, _, nu) in runs.items():
        reg = observer.registry
        peak = reg.series["storage.total_bits"].max_value()
        normalized = peak / VALUE_BITS
        bounds = evaluate_bounds(N, F, nu)
        rows.append((
            name, nu, normalized,
            bounds.singleton, bounds.theorem51, bounds.theorem65,
        ))
    print("observed peak total storage vs lower bounds "
          "(normalized by log2|V|):")
    print(format_table(
        ("algorithm", "nu obs", "measured peak", "ThmB.1", "Thm5.1", "Thm6.5"),
        rows,
        ".3f",
        indent="  ",
    ))
    print("  every measured peak sits above every applicable bound.")
    print("  (CAS at its rate-optimal k still holds multiple versions")
    print("  per server until finalization, so its transient peak here")
    print("  exceeds ABD's steady N copies.)\n")

    # -- communication + phase telemetry from the same runs ------------------
    for name, (observer, result, _) in runs.items():
        reg = observer.registry
        print(f"{name}: {reg.counter('sim.messages_sent').value} messages, "
              f"{reg.counter('sim.message_bits_sent').value} bits on the wire, "
              f"{result.steps} steps")
        stats = observer.spans.stats()
        print(format_table(
            ("phase", "count", "mean steps", "max steps"),
            [
                (phase, s["count"], s["mean_steps"], s["max_steps"])
                for phase, s in stats.items()
            ],
            ".1f",
            indent="  ",
        ))
        open_spans = observer.spans.open_spans()
        assert not open_spans, f"unclosed spans in {name}: {open_spans}"
        print()

    print("same data, machine-readable:  "
          "python -m repro metrics --algorithm cas -n 21 -f 10 --json out.json")


if __name__ == "__main__":
    main()
