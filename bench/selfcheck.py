"""Fast self-check of the benchmark (under a minute):

    python3 bench/selfcheck.py

1. The generators' closed forms agree with the library at small sizes.
2. A tiny run of each workload, untraced and traced, gets every verdict
   right (verdict_ok_frac 1.0); the traced run also checks that each
   exploring operation explored exactly the closed-form number of states.

Exits 0 when everything holds, 1 otherwise, listing what failed.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402

TINY = {"pairs": 2, "station": 2, "pairs_smp": 2, "pairs_mp": 2,
        "chain": 10, "chain_verify": 6, "loop_check": 4, "loop": 5, "cmv": 4}


def closed_forms(seed: int) -> list[str]:
    from mcmp import lcmv, ltypes, patterns, semantics, syntax

    problems = []

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    rng = random.Random(seed)
    g = gen.pairs(rng, 2)
    m, delta = syntax.parse_source(g.text)
    expect("pairs n=2 states", len(semantics.explore(m).states), 16)
    expect("pairs n=2 closed form", g.states, 16)
    expect("pairs n=2 contexts", len(ltypes.explore_contexts(delta).contexts), 16)
    expect("pairs n=2 in DMP", "DMP" in syntax.classify(m), True)
    expect("pairs n=2 M pattern", patterns.detect_m(m), None)

    g = gen.pairs(rng, 2, station=True)
    m, _ = syntax.parse_source(g.text)
    expect("station n=2 states", len(semantics.explore(m).states), g.states)
    expect("station n=2 electoral", patterns.is_electoral(m, g.facts["station"], g.facts["label"]), (True, None))

    g = gen.chain(rng, 10)
    m, delta = syntax.parse_source(g.text)
    expect("chain k=10 states", len(semantics.explore(m).states), 11)
    expect("chain k=10 closed form", g.states, 11)
    expect("chain k=10 contexts", len(ltypes.explore_contexts(delta).contexts), 11)
    expect("chain k=10 in SCBS", "SCBS" in syntax.classify(m), True)

    g = gen.loop(rng, 5)
    m, delta = syntax.parse_source(g.text)
    expect("loop k=5 states", len(semantics.explore(m).states), g.states)
    expect("loop k=5 contexts", len(ltypes.explore_contexts(delta).contexts), g.states)

    g = gen.cmv_chain(rng, 4)
    expect("cmv chain k=4 states", len(lcmv.explore_cmv(lcmv.parse_cmv(g.text)).states), g.states)
    return problems


def tiny_runs(seed: int) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            started = time.monotonic()
            if workload == "sweep":
                result = run.sweep_workload(seed, 0.01, trace, started)
            else:
                result = run.cli_workload(workload, seed, 0.0, trace, started, sizes=TINY)
            label = f"tiny {workload} run{' (traced)' if trace else ''}"
            if result["failures"]:
                problems.append(f"{label}: {result['failures'][:3]}")
            if not trace and result["metrics"]["verdict_ok_frac"][0] != 1.0:
                problems.append(f"{label}: verdict_ok_frac {result['metrics']['verdict_ok_frac'][0]}")
    return problems


def main() -> int:
    seed = 20240513
    problems = closed_forms(seed) + tiny_runs(seed)
    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
