"""The ``sweep`` workload: hundreds of thousands of distinct tiny inputs
decided by in-process library calls, the way the acceptance sweeps use the
library.

Run as a worker by ``run.py``, which reads the JSON report this prints:

    PYTHONPATH=src python3 bench/sweep.py --seed 1 --seconds 20 --trace 0

Items are built in blocks outside the timed region; a block is the unit of
work, as a pass over the commands is for the CLI workloads.  Every item's
answer is fixed by construction:

* ``detect_m`` is None on directed (DMP/SMP/MP) three-party sessions and on
  binary (MCBS) sessions: every step there consumes the choices of one
  mutually targeting pair, so conflict is an equivalence and no step can
  conflict with two distributable ones.  The same holds for two-component
  linear ``.cmv`` programs, whose every step consumes both choices.
* ``detect_star`` is None on any three-party session: two communications
  always share a participant, so no two steps are distributable.
* ``classify`` contains every calculus above the shape the session was
  generated in.
* ``subtype(t, widen(t))`` holds: widening only adds outputs and drops
  inputs, which is what subtyping allows.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
import time
from array import array
from pathlib import Path

BLOCK = 5000
POOL = 1024  # seeded processes per participant and shape, and .cmv sides
POOL_BUILDS = 3  # the pools are built this many times for a median set-up time
TRACE_ITEMS = 20000  # items per traced (and per untraced reference) pass
PEERS = ("p", "q", "r")
LABELS = ("l1", "l2")
TYPE_LABELS = ("l1", "l2", "l3")
# one slot per item kind, repeated through a block
PATTERN = ("exh", "rand", "exh", "rand", "star", "classify", "exh", "rand", "subtype", "cmv")
# generated shape -> every calculus above it in the inclusion lattice
ABOVE = {
    "mcbs": {"MCMP", "MSMP", "DMP", "MCBS"},
    "dmp": {"MCMP", "MSMP", "DMP"},
    "smp": {"MCMP", "MSMP", "SCMP", "DMP", "SMP"},
    "mp": {"MCMP", "MSMP", "SCMP", "DMP", "SMP", "MP"},
    "scmp": {"MCMP", "MSMP", "SCMP"},
}
RANDOM_SHAPES = ("mcbs", "dmp", "smp", "mp")
DETECT_KINDS = ("detect_m", "detect_star", "cmv_detect_m")


class Items:
    """Seeded stream of (kind, function name, arguments, expected) items.

    ``exh`` items walk every three-party directed session with depth-1
    continuations (66^3 of them) from a seeded start with a seeded stride
    coprime to the count, so no session repeats within a run.

    Random sessions put together processes drawn from seeded pools, one
    pool per participant and shape, and ``.cmv`` programs put together two
    pooled choice sides with fresh capabilities.  Inputs stay distinct
    (1024^2 or 1024^3 combinations) while building one costs a few
    microseconds, so a run spends its time deciding, not generating.

    Each subtyping item draws a fresh type.  Those items make up most of
    the slowest percent of latencies, and a pool of types fixes that tail
    per seed: with a pool of 1024 the p99 moved by up to a quarter from seed to
    seed."""

    def __init__(self, seed: int):
        from mcmp import lcmv, ltypes, syntax

        self.syntax, self.ltypes, self.lcmv = syntax, ltypes, lcmv
        self.rng = random.Random(seed)
        self.directed = [self._directed_depth1([q for q in PEERS if q != p]) for p in PEERS]
        self.space = len(self.directed[0]) ** 3
        self.cursor = self.rng.randrange(self.space)
        self.stride = self._coprime_stride(self.space)
        self.pools = {}
        for shape in (*RANDOM_SHAPES, "scmp"):
            names = PEERS[:2] if shape == "mcbs" else PEERS
            self.pools[shape] = [
                (p, [self._process([q for q in names if q != p], 2, shape) for _ in range(POOL)]) for p in names
            ]
        self.cmv_sides = [[self._cmv_side(bias) for _ in range(POOL)] for bias in (0.7, 0.3)]
        self.last_session = None
        self.last_shape = "dmp"

    def _coprime_stride(self, n: int) -> int:
        while True:
            stride = self.rng.randrange(n // 3, n)
            if math.gcd(stride, n) == 1:
                return stride

    # -- processes, sessions, types and programs

    def _branch(self, target: str, pol: str, label: str, cont):
        s = self.syntax
        if pol == "!":
            return s.Branch(s.Prefix(target, "!", label, payload=s.TT), cont)
        return s.Branch(s.Prefix(target, "?", label, var="x"), cont)

    def _leaf(self):
        return self.syntax.Success() if self.rng.random() < 0.3 else self.syntax.Nil()

    def _directed_depth1(self, peers):
        s = self.syntax
        heads = [(peer, pol, label) for peer in peers for pol in "!?" for label in LABELS]
        out = [s.Nil(), s.Success()]
        for peer in peers:
            mine = [h for h in heads if h[0] == peer]
            for size in (1, 2):
                for combo in itertools.combinations(mine, size):
                    for conts in itertools.product((s.Nil, s.Success), repeat=size):
                        out.append(s.Choice(tuple(self._branch(*h, c()) for h, c in zip(combo, conts))))
        return out

    def _heads(self, peers, shape: str):
        rng = self.rng
        count = rng.randint(1, 2)
        if shape == "mp":
            if rng.random() < 0.5:
                return [(rng.choice(peers), "!", rng.choice(LABELS))]
            target = rng.choice(peers)
            return [(target, "?", label) for label in rng.sample(LABELS, count)]
        if shape == "smp":
            target, pol = rng.choice(peers), rng.choice("!?")
            return [(target, pol, label) for label in rng.sample(LABELS, count)]
        if shape in ("dmp", "mcbs"):
            target = rng.choice(peers)
            draws = [(target, rng.choice("!?"), rng.choice(LABELS)) for _ in range(count)]
        else:  # scmp: one polarity, any peers
            pol = rng.choice("!?")
            draws = [(rng.choice(peers), pol, rng.choice(LABELS)) for _ in range(count)]
        return list(dict.fromkeys(draws))

    def _process(self, peers, depth: int, shape: str):
        if depth == 0 or self.rng.random() < 0.25:
            return self._leaf()
        branches = [
            self._branch(t, pol, label, self._process(peers, depth - 1, shape))
            for t, pol, label in self._heads(peers, shape)
        ]
        return self.syntax.Choice(tuple(branches))

    def _session(self, shape: str):
        rng = self.rng
        return self.syntax.Session(tuple((p, pool[rng.randrange(POOL)]) for p, pool in self.pools[shape]))

    def _type(self, depth: int, tvar: str | None):
        ltypes = self.ltypes
        rng = self.rng
        if depth == 0 or rng.random() < 0.2:
            return ltypes.TVar(tvar) if tvar and rng.random() < 0.4 else ltypes.End()
        heads = sorted({(rng.choice(("q", "r")), rng.choice("!?"), rng.choice(TYPE_LABELS)) for _ in range(rng.randint(1, 3))})
        return ltypes.TChoice(
            tuple(
                ltypes.TBranch(t, pol, label, rng.choice(("nat", "bool")), self._type(depth - 1, tvar))
                for t, pol, label in heads
            )
        )

    def _rec_type(self):
        ltypes = self.ltypes
        if self.rng.random() < 0.3:
            body = self._type(3, "t")
            if isinstance(body, ltypes.TChoice):  # every t then sits under a prefix
                return ltypes.TRec("t", body)
        return self._type(3, None)

    def _widen(self, t):
        """A supertype of t: output blocks may gain labels, input blocks may
        lose branches (keeping one), continuations are widened."""
        ltypes = self.ltypes
        rng = self.rng
        if isinstance(t, ltypes.TRec):
            return ltypes.TRec(t.var, self._widen(t.body))
        if not isinstance(t, ltypes.TChoice):
            return t
        blocks: dict[tuple[str, str], list] = {}
        for b in t.branches:
            blocks.setdefault((b.target, b.polarity), []).append(
                ltypes.TBranch(b.target, b.polarity, b.label, b.payload, self._widen(b.cont))
            )
        out = []
        for (target, pol), bs in blocks.items():
            if pol == "!":
                present = {b.label for b in bs}
                for label in TYPE_LABELS:
                    if label not in present and rng.random() < 0.4:
                        bs.append(ltypes.TBranch(target, "!", label, "bool", ltypes.End()))
            else:
                while len(bs) > 1 and rng.random() < 0.4:
                    bs.pop(rng.randrange(len(bs)))
            out.extend(bs)
        return ltypes.TChoice(tuple(out))

    def _cmv_side(self, out_bias: float) -> tuple:
        """Branches of one endpoint's choice: one or two summands, outputs
        with probability out_bias, every continuation inaction."""
        rng, lcmv, s = self.rng, self.lcmv, self.syntax
        branches = []
        for _ in range(rng.randint(1, 2)):
            label = rng.choice(LABELS)
            if rng.random() < out_bias:
                branches.append(lcmv.CBranch(label, "!", payload=rng.choice((s.TT, s.FF)), cont=lcmv.Inact()))
            else:
                branches.append(lcmv.CBranch(label, "?", var="z", cont=lcmv.Inact()))
        return tuple(branches)

    # -- items

    def item(self, kind: str):
        if kind == "exh":
            n = len(self.directed[0])
            i = self.cursor
            self.cursor = (self.cursor + self.stride) % self.space
            parts = (i // (n * n), (i // n) % n, i % n)
            m = self.syntax.Session(tuple((p, self.directed[k][j]) for k, (p, j) in enumerate(zip(PEERS, parts))))
            return ("detect_m", "patterns.detect_m", (m,), None)
        if kind == "rand":
            shape = self.rng.choice(RANDOM_SHAPES)
            m = self._session(shape)
            self.last_session, self.last_shape = m, shape
            return ("detect_m", "patterns.detect_m", (m,), None)
        if kind == "star":
            m = self._session("scmp")
            self.last_session, self.last_shape = m, "scmp"
            return ("detect_star", "patterns.detect_star", (m,), None)
        if kind == "classify":
            return ("classify", "syntax.classify", (self.last_session,), ABOVE[self.last_shape])
        if kind == "subtype":
            t = self._rec_type()
            return ("subtype", "ltypes.subtype", (t, self._widen(t)), True)
        if kind == "cmv":
            lcmv, rng = self.lcmv, self.rng
            xs, ys = (sides[rng.randrange(POOL)] for sides in self.cmv_sides)
            program = lcmv.CRes("x", "y", lcmv.CPar(lcmv.CChoice("x", xs), lcmv.CChoice("y", ys)))
            return ("cmv_detect_m", "patterns.detect_m", (program,), None)
        raise ValueError(kind)

    def block(self, size: int) -> list:
        return [self.item(PATTERN[i % len(PATTERN)]) for i in range(size)]


def verdict_ok(kind: str, result, expected) -> bool:
    if kind == "classify":
        return expected <= result
    return result is expected


def run_items(items, table, lat: array, kind_ns: dict, tracer=None) -> tuple[float, list]:
    """Decide every item, appending each latency in ns to lat and counting
    items and ns per kind in kind_ns; returns the wall time from the first call to the last
    verdict, and the failures."""
    clock = time.perf_counter_ns
    failures = []
    began = clock()
    for n, (kind, fname, args, expected) in enumerate(items):
        if tracer is not None:
            tracer.op_id = n
        fn = table[fname]
        t0 = clock()
        try:
            result = fn(*args)
        except Exception as e:  # a crash is a failed item, not a crashed run
            failures.append({"kind": kind, "error": f"{type(e).__name__}: {e}"})
            result = e
        spent = clock() - t0
        lat.append(spent)
        tally = kind_ns.setdefault(kind, [0, 0])
        tally[0] += 1
        tally[1] += spent
        if not isinstance(result, Exception) and not verdict_ok(kind, result, expected):
            failures.append({"kind": kind, "result": repr(result)[:200]})
    return (clock() - began) / 1e9, failures


def dispatch_table() -> dict:
    from mcmp import ltypes, patterns, syntax

    # looked up after any tracer is installed, so the wrappers are called
    return {
        "patterns.detect_m": patterns.detect_m,
        "patterns.detect_star": patterns.detect_star,
        "syntax.classify": syntax.classify,
        "ltypes.subtype": ltypes.subtype,
    }


def measure(seed: int, seconds: float) -> dict:
    t0 = time.perf_counter()
    import mcmp.lcmv, mcmp.ltypes, mcmp.patterns, mcmp.syntax  # noqa: F401  (import is part of set-up)

    import_s = time.perf_counter() - t0
    pools_s = []
    for _ in range(POOL_BUILDS):
        t0 = time.perf_counter()
        source = Items(seed)
        pools_s.append(time.perf_counter() - t0)
    table = dispatch_table()
    lat = array("q")
    kind_ns: dict[str, list[int]] = {}
    builds, walls, detect_rates, failures = [], [], [], []
    decided = 0.0
    while decided < seconds:
        b0 = time.perf_counter()
        items = source.block(BLOCK)
        builds.append(time.perf_counter() - b0)
        block_ns: dict[str, list[int]] = {}
        wall, bad = run_items(items, table, lat, block_ns)
        walls.append(wall)
        decided += wall
        failures.extend(bad)
        detects = [block_ns[kind] for kind in DETECT_KINDS if kind in block_ns]
        detect_rates.append(sum(c for c, _ in detects) / (sum(ns for _, ns in detects) / 1e9))
        for kind, (c, ns) in block_ns.items():
            tally = kind_ns.setdefault(kind, [0, 0])
            tally[0] += c
            tally[1] += ns
    ordered = sorted(lat)
    n = len(ordered)
    return {
        "attempted": n,
        "failed": len(failures),
        "failures": failures[:10],
        "import_s": import_s,
        "pools_s": pools_s,
        "block_build_s": builds,
        "block_wall_s": walls,
        "decided_s": decided,
        "item_p50_ns": ordered[_rank(n, 0.50)],
        "item_p99_ns": ordered[_rank(n, 0.99)],
        "kinds": {kind: {"items": c, "s": ns / 1e9} for kind, (c, ns) in kind_ns.items()},
        "block_detect_per_s": detect_rates,
    }


def _rank(n: int, q: float) -> int:
    """Nearest-rank index of quantile q in a sorted list of n samples."""
    return max(0, math.ceil(q * n) - 1)


def measure_traced(seed: int, spans_path: Path) -> dict:
    """An untraced and a traced pass over two equally drawn item sets of
    TRACE_ITEMS each (distinct items, so the second pass finds no cached
    resolutions); the difference of their walls is the tracing overhead."""
    import tracer as tracing

    source = Items(seed)
    plain_items = source.block(TRACE_ITEMS)
    traced_items = source.block(TRACE_ITEMS)
    plain_wall, bad = run_items(plain_items, dispatch_table(), array("q"), {})
    tracer = tracing.Tracer()
    tracer.install()
    traced_wall, bad2 = run_items(traced_items, dispatch_table(), array("q"), {}, tracer=tracer)
    tracer.dump(spans_path)
    return {
        "attempted": 2 * TRACE_ITEMS,
        "failed": len(bad) + len(bad2),
        "failures": (bad + bad2)[:10],
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "layers": tracer.aggregate(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where the traced pass writes its spans")
    args = parser.parse_args(argv)
    if args.trace:
        report = measure_traced(args.seed, args.spans)
    else:
        report = measure(args.seed, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
