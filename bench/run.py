"""Benchmark harness for the workbench: three seeded workloads, every verdict
checked against an answer known by construction, the program called only
from outside.

    python3 bench/run.py --workload statespace --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is taken from ``src``.
The last line of standard output is the result object; the line before it
holds the provenance and the sample count of each metric.  A full record
goes to ``.bench_out/results``.  See ``bench/README.md`` for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MCMP = "import sys; from mcmp.cli import main; sys.exit(main())"  # what the mcmp script runs
SETUP_REPEATS = 10  # per pass: set-up takes milliseconds, so its median needs samples spread over the run
MIN_PASSES = 3  # every output is compared with repeats, and each latency is a mean of three or more
OP_LIMIT_S = 90.0  # per-operation time limit; a slower verdict is a failure
RUN_BUDGET_S = 160.0  # no operation starts after this much of the run


# ---------------------------------------------------------------------------
# operations and their known answers


@dataclass
class Op:
    name: str
    argv: list[str]
    expect: dict  # exit code under "exit", JSON fields otherwise
    states: int | None = None  # closed-form states of the input it explores
    explorer: str | None = None  # the function whose first call explores them
    labels: list[str] | None = None  # simulate: the labels of the expected trace

    def check(self, code: int, out: dict) -> str | None:
        """None when the answer is the known one, else what differs."""
        if code != self.expect["exit"]:
            return f"exit {code}, expected {self.expect['exit']}"
        for key, want in self.expect.items():
            if key != "exit" and out.get(key) != want:
                return f"{key} is {out.get(key)!r}, expected {want!r}"
        if self.labels is not None:
            got = [entry.split(":", 1)[1].split("(", 1)[0] for entry in out.get("trace", [])]
            if got != self.labels:
                return f"trace labels differ after {sum(1 for a, b in zip(got, self.labels) if a == b)} steps"
        return None


def _write(directory: Path, name: str, g: gen.Generated, ext: str = ".mcmp") -> str:
    path = directory / f"{name}{ext}"
    path.write_text(g.text)
    return str(path)


# Input sizes, chosen for headroom below the limits the seed program hits
# (see README.md): a 140-message chain makes verify-encoding and a
# 120-message loop makes check fail with RecursionError, and the electoral
# path budget is exhausted by the station variant at n=4.
SIZES = {"pairs": 6, "station": 3, "pairs_smp": 4, "pairs_mp": 3,
         "chain": 200, "chain_verify": 100, "loop_check": 60, "loop": 100, "cmv": 100}


def statespace_ops(rng: random.Random, directory: Path, sizes: dict = SIZES) -> list[Op]:
    """Wide, shallow state spaces: n independent mixed-choice pairs."""
    p6, station = gen.pairs(rng, sizes["pairs"]), gen.pairs(rng, sizes["station"], station=True)
    p4, p3 = gen.pairs(rng, sizes["pairs_smp"]), gen.pairs(rng, sizes["pairs_mp"])
    f6, fs, f4, f3 = (_write(directory, n, g) for n, g in (("pairs6", p6), ("station3", station), ("pairs4", p4), ("pairs3", p3)))
    ctx = "ltypes.explore_contexts"
    sessions = "semantics.explore_many"
    return [
        Op("check/pairs6", ["check", f6], {"exit": 0, "ok": True}, p6.states, ctx),
        Op("safety/pairs6", ["safety", f6], {"exit": 0, "safe": True}, p6.states, ctx),
        Op("df/pairs6", ["df", f6], {"exit": 0, "deadlock_free": True}, p6.states, ctx),
        Op("detect-m/pairs6", ["detect", f6, "--pattern", "m"], {"exit": 1, "found": False}, p6.states, sessions),
        Op("electoral/station3", ["electoral", fs, "--station", station.facts["station"], "--label", station.facts["label"]],
           {"exit": 0, "electoral": True}, station.states, sessions),
        Op("verify-dmp-smp/pairs4", ["verify-encoding", f4, "--via", "dmp-smp"], {"exit": 0, "passed": True}, p4.states, sessions),
        Op("verify-dmp-mp/pairs3", ["verify-encoding", f3, "--via", "dmp-mp"], {"exit": 0, "passed": True}, p3.states, sessions),
    ]


def deep_ops(rng: random.Random, directory: Path, sizes: dict = SIZES) -> list[Op]:
    """Few states, large terms: message chains, recursive loops and linear
    mixed-session chains."""
    c200, c100 = gen.chain(rng, sizes["chain"]), gen.chain(rng, sizes["chain_verify"])
    l60, l100 = gen.loop(rng, sizes["loop_check"]), gen.loop(rng, sizes["loop"])
    cmv = gen.cmv_chain(rng, sizes["cmv"])
    fc200, fc100, fl60, fl100 = (_write(directory, n, g) for n, g in (("chain200", c200), ("chain100", c100), ("loop60", l60), ("loop100", l100)))
    fcmv = _write(directory, "cmv100", cmv, ".cmv")
    ctx = "ltypes.explore_contexts"
    sessions = "semantics.explore_many"
    rounds = 2
    return [
        Op("check/chain200", ["check", fc200], {"exit": 0, "ok": True}, c200.states, ctx),
        Op("safety/chain200", ["safety", fc200], {"exit": 0, "safe": True}, c200.states, ctx),
        Op("df/chain200", ["df", fc200], {"exit": 0, "deadlock_free": True}, c200.states, ctx),
        Op("simulate/chain200", ["simulate", fc200, "--max-steps", str(c200.states + 8)],
           {"exit": 0, "final": c200.facts["final"], "success": True}, labels=c200.facts["labels"]),
        Op("verify-scbs-bs/chain100", ["verify-encoding", fc100, "--via", "scbs-bs"], {"exit": 0, "passed": True}, c100.states, sessions),
        Op("check/loop60", ["check", fl60], {"exit": 0, "ok": True}, l60.states, ctx),
        Op("safety/loop100", ["safety", fl100], {"exit": 0, "safe": True}, l100.states, ctx),
        Op("df/loop100", ["df", fl100], {"exit": 0, "deadlock_free": True}, l100.states, ctx),
        Op("detect-m/loop100", ["detect", fl100, "--pattern", "m"], {"exit": 1, "found": False}, l100.states, sessions),
        Op("simulate/loop100", ["simulate", fl100, "--max-steps", str(rounds * len(l100.facts["labels"]))],
           {"exit": 0, "final": l100.facts["roles"], "success": False}, labels=l100.facts["labels"] * rounds),
        Op("cmv-check/cmv100", ["cmv", "check", fcmv], {"exit": 0, "ok": True}),
        Op("cmv-encode/cmv100", ["cmv", "encode", fcmv], {"exit": 0, "via": "lcmv-mcbs"}),
        Op("verify-lcmv-mcbs/cmv100", ["verify-encoding", fcmv, "--via", "lcmv-mcbs"], {"exit": 0, "passed": True}, cmv.states, "lcmv.explore_cmv"),
    ]


CLI_WORKLOADS = {"statespace": statespace_ops, "deep": deep_ops}
WORKLOADS = ("statespace", "deep", "sweep")


# ---------------------------------------------------------------------------
# running


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)  # default hash randomisation in every child
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Outcome:
    op: int
    wall_s: float
    error: str | None
    trace: dict | None = None


class CliRunner:
    def __init__(self, ops: list[Op], deadline: float, trace_dir: Path):
        self.ops = ops
        self.deadline = deadline
        self.trace_dir = trace_dir
        self.env = child_env()
        self.first_output: dict[int, bytes] = {}

    def run(self, i: int, traced: bool) -> Outcome:
        op = self.ops[i]
        timeout = min(OP_LIMIT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return Outcome(i, 0.0, "not started: run budget spent")
        if traced:
            prefix = self.trace_dir / f"op{i:02d}"
            cmd = [sys.executable, str(BENCH / "tracer.py"), "--op", str(i), "--out", str(prefix), "--", *op.argv, "--json"]
        else:
            cmd = [sys.executable, "-c", MCMP, *op.argv, "--json"]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=timeout, env=self.env, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return Outcome(i, time.perf_counter() - t0, f"no verdict within {timeout:.0f} s")
        wall = time.perf_counter() - t0
        error = self._judge(i, proc)
        report = None
        if traced and error is None:
            report = json.loads(prefix.with_suffix(".json").read_text())
            first = report["functions"].get(op.explorer, {}).get("first") if op.explorer else None
            if op.explorer and first != op.states:
                error = f"{op.explorer} explored {first} states, closed form {op.states}"
        return Outcome(i, wall, error, report)

    def _judge(self, i: int, proc) -> str | None:
        if b"Traceback" in proc.stderr:
            return "traceback: " + proc.stderr.decode(errors="replace").strip().splitlines()[-1]
        try:
            out = json.loads(proc.stdout)
        except ValueError:
            return f"exit {proc.returncode} without JSON output"
        error = self.ops[i].check(proc.returncode, out)
        if error is None:
            earlier = self.first_output.setdefault(i, proc.stdout)
            if earlier != proc.stdout:
                error = "JSON output differs from an earlier run of the same operation"
        return error

    def run_pass(self, traced: bool = False) -> tuple[float, list[Outcome]]:
        t0 = time.perf_counter()
        outcomes = [self.run(i, traced) for i in range(len(self.ops))]
        return time.perf_counter() - t0, outcomes


def _rank(n: int, q: float) -> int:
    return max(0, math.ceil(q * n) - 1)


def peak_rss_mb() -> float:
    # Linux reports the peak of the largest waited-for child, in KiB
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def set_up(workload: str, seed: int, sizes: dict, times: list[float]) -> list[Op]:
    """Generate and write the inputs SETUP_REPEATS times (the same seed
    gives the same files), adding each time taken to times."""
    directory = OUT / "inputs" / workload
    directory.mkdir(parents=True, exist_ok=True)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = CLI_WORKLOADS[workload](random.Random(seed), directory, sizes)
        times.append(time.perf_counter() - t0)
    return ops


def cli_workload(workload: str, seed: int, seconds: float, trace: bool, started: float, sizes: dict = SIZES) -> dict:
    setups: list[float] = []
    ops = set_up(workload, seed, sizes, setups)
    trace_dir = OUT / "trace" / workload
    trace_dir.mkdir(parents=True, exist_ok=True)
    runner = CliRunner(ops, started + RUN_BUDGET_S, trace_dir)
    if trace:
        plain_wall, plain = runner.run_pass()
        traced_wall, traced = runner.run_pass(traced=True)
        outcomes = plain + traced
        merged = merge([o.trace for o in traced if o.trace])
        startup = sum(o.wall_s - o.trace["functions"].get("cli.main", {}).get("total_s", 0.0) - o.trace["dump_s"]
                      for o in traced if o.trace)
        result = {"metrics": layer_metrics(merged, startup, traced_wall, plain_wall), "samples": {"passes": 1}}
    else:
        walls, outcomes, spent = [], [], 0.0
        while len(walls) < MIN_PASSES or spent < seconds:
            if time.monotonic() > started + RUN_BUDGET_S:
                break
            if walls:
                set_up(workload, seed, sizes, setups)
            wall, done = runner.run_pass()
            walls.append(wall)
            outcomes.extend(done)
            spent += wall
        # one latency per operation: its mean over the passes, which over three
        # or four passes varies less from run to run than their median
        lat = sorted(statistics.mean(o.wall_s for o in outcomes if o.op == i) for i in range(len(ops)))
        rates = []
        for k in range(len(walls)):
            chunk = outcomes[k * len(ops):(k + 1) * len(ops)]
            explored = [o for o in chunk if ops[o.op].states and o.wall_s > 0]
            if explored:
                rates.append(sum(ops[o.op].states for o in explored) / sum(o.wall_s for o in explored))
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "states_per_s": (statistics.median(rates), "1/s"),
            "items_per_s": (len(outcomes) / sum(walls), "1/s"),
            "item_p50_us": (lat[_rank(len(lat), 0.50)] * 1e6, "us"),
            "item_p99_us": (lat[_rank(len(lat), 0.99)] * 1e6, "us"),
            "verdict_ok_frac": (sum(o.error is None for o in outcomes) / len(outcomes), "frac"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        samples = {"setup_s": len(setups), "wall_s": len(walls), "states_per_s": len(rates), "items_per_s": len(outcomes),
                   "item_p50_us": len(lat), "item_p99_us": len(lat), "verdict_ok_frac": len(outcomes), "peak_rss_mb": 1}
        per_op = {op.name: [o.wall_s for o in outcomes if o.op == i] for i, op in enumerate(ops)}
        result = {"metrics": metrics, "samples": samples, "pass_walls_s": walls, "op_walls_s": per_op}
    result["attempted"] = len(outcomes)
    result["failures"] = [{"op": ops[o.op].name, "error": o.error} for o in outcomes if o.error]
    return result


def sweep_workload(seed: int, seconds: float, trace: bool, started: float) -> dict:
    spans = OUT / "trace" / "sweep" / "items.spans"
    cmd = [sys.executable, str(BENCH / "sweep.py"), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--spans", str(spans)]
    limit = started + RUN_BUDGET_S - time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=limit, env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SystemExit("error: the sweep worker ran out of the run budget")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"error: the sweep worker exited with {proc.returncode}")
    r = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if trace:
        metrics = layer_metrics(r["layers"], 0.0, r["traced_wall_s"], r["untraced_wall_s"])
        result = {"metrics": metrics, "samples": {"items_per_pass": r["attempted"] // 2}}
    else:
        n = r["attempted"]
        builds = r["block_build_s"]
        metrics = {
            "setup_s": (r["import_s"] + statistics.median(r["pools_s"]) + statistics.median(builds), "s"),
            "wall_s": (statistics.median(r["block_wall_s"]), "s"),
            "states_per_s": (statistics.median(r["block_detect_per_s"]), "1/s"),
            "items_per_s": (n / r["decided_s"], "1/s"),
            "item_p50_us": (r["item_p50_ns"] / 1e3, "us"),
            "item_p99_us": (r["item_p99_ns"] / 1e3, "us"),
            "verdict_ok_frac": ((n - r["failed"]) / n, "frac"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        samples = {"setup_s": len(builds), "wall_s": len(r["block_wall_s"]), "states_per_s": len(r["block_detect_per_s"]),
                   "items_per_s": n, "item_p50_us": n, "item_p99_us": n, "verdict_ok_frac": n, "peak_rss_mb": 1}
        result = {"metrics": metrics, "samples": samples, "kinds": r["kinds"]}
    result["attempted"] = r["attempted"]
    result["failed"] = r["failed"]
    result["failures"] = r["failures"]  # the first ten
    return result


# ---------------------------------------------------------------------------
# per-layer metrics from the traced pass

# (function, statistics); sizes are named as in tracer.PROBES
LAYER_STATS = [
    ("syntax.canon_session", ("calls", "self_s")),
    ("syntax.canon_process", ("calls", "self_s")),
    ("syntax.substitute_value", ("calls", "self_s")),
    ("syntax.head_normal", ("calls",)),
    ("syntax.classify", ("calls", "self_s")),
    ("semantics.resolve", ("calls", "self_s")),
    ("semantics.enabled_steps", ("calls", "self_s")),
    ("semantics.apply_step", ("calls", "self_s")),
    ("semantics.explore_many", ("calls", "states", "edges", "self_s")),
    ("semantics.weak_bisim_classes", ("states", "self_s")),
    ("ltypes.explore_contexts", ("contexts", "edges", "self_s")),
    ("ltypes.context_steps", ("calls", "self_s")),
    ("ltypes.is_safe", ("self_s",)),
    ("ltypes.is_deadlock_free", ("self_s",)),
    ("ltypes.subtype", ("calls", "self_s")),
    ("typecheck.check_session", ("self_s",)),
    ("encode.encode", ("calls", "self_s")),
    ("encode.verify_correspondence", ("self_s",)),
    ("patterns.is_electoral", ("self_s",)),
    ("patterns.detect_m", ("calls", "self_s")),
    ("patterns.detect_star", ("calls", "self_s")),
    ("lcmv.parse_cmv", ("calls", "self_s")),
    ("lcmv.check_cmv", ("calls", "self_s")),
    ("lcmv.explore_cmv", ("calls", "states", "self_s")),
    ("lcmv.encode_lcmv_to_mcbs", ("calls", "self_s")),
    ("cli.lcmv_correspondence", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
]
def merge(reports: list[dict]) -> dict:
    merged = {"spans": 0, "functions": {}, "canon_in_explore": 0, "joint_states": 0, "errors": dict.fromkeys(LAYERS, 0)}
    for r in reports:
        for key in ("spans", "canon_in_explore", "joint_states"):
            merged[key] += r[key]
        for layer, count in r["errors"].items():
            merged["errors"][layer] += count
        for name, f in r["functions"].items():
            into = merged["functions"].setdefault(name, {})
            for key, value in f.items():
                if key != "first":
                    into[key] = into.get(key, 0) + value
    return merged


def layer_metrics(agg: dict, startup_s: float, traced_wall: float, plain_wall: float) -> dict:
    funcs = agg["functions"]
    out = {}
    for name, stats in LAYER_STATS:
        f = funcs.get(name, {})
        for stat in stats:
            out[f"{name}.{stat}"] = (f.get(stat, 0), "s" if stat == "self_s" else "count")
    explore = funcs.get("semantics.explore_many", {})
    states = explore.get("states", 0)
    out["semantics.explore_many.states_per_s"] = (states / explore["total_s"] if states else 0.0, "1/s")
    out["semantics.explore_many.canon_per_state"] = (agg["canon_in_explore"] / states if states else 0.0, "ratio")
    out["encode.verify_correspondence.joint_states"] = (agg["joint_states"], "count")
    out["cli.startup_s"] = (startup_s, "s")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (agg["errors"][layer], "count")
    out["trace.spans"] = (agg["spans"], "count")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return out


# ---------------------------------------------------------------------------
# provenance and output


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mcmp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the traced run, per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "mcmp" / "cli.py").is_file():
        print(f"error: no workbench sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    # compile the sources once, as an installed package has them compiled
    subprocess.run([sys.executable, "-c", "import mcmp.cli"], env=child_env(), cwd=ROOT, check=True)
    if args.workload == "sweep":
        result = sweep_workload(args.seed, args.seconds, bool(args.trace), started)
    else:
        result = cli_workload(args.workload, args.seed, args.seconds, bool(args.trace), started)
    failed = result.get("failed", len(result["failures"]))
    record = {"provenance": provenance(args.workload, args.seed, args.seconds, bool(args.trace)), **result}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"provenance": record["provenance"], "samples": result["samples"], "failures": result["failures"][:5]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
