"""The golden output corpus: the CLI run on every fixture, on small inputs
from bench/gen.py, under cut bounds, on usage errors and for every --help,
each case kept in golden.json as its argv, its exit code and the SHA-256 of
its stdout, its stderr and the DOT file it wrote (null when it wrote none).

test_golden.py replays golden.json in process and compares.  After a change
that alters some output on purpose, rewrite the manifest from the tree with

    PYTHONPATH=src python3 tests/golden.py

and say which entries changed and why.

Paths in an argv are relative to the repository root; $TMP stands for a
scratch directory that holds the generated inputs and the DOT file.  Help
and argparse's usage errors are worded by the Python version's argparse, so
those entries are compared byte for byte only under the Python version that
wrote the manifest, and by exit code under any other.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

import corpus
from genutil import bench_gen
from mcmp import cli, encode

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "golden.json"
COLUMNS = "80"  # the width help is wrapped to
DOT = "$TMP/graph.dot"
SESSION_COMMANDS = ("check", "safety", "df", "simulate", "classify")
ENCODINGS = sorted(encode.ENCODINGS)


def generated() -> dict[str, tuple[str, dict]]:
    """The generated inputs, by file name: seed-1 instances of bench/gen.py's
    families at cheap sizes, each with its facts."""
    gen = bench_gen()
    made = {
        "pairs2.mcmp": gen.pairs(random.Random(1), 2),
        "station2.mcmp": gen.pairs(random.Random(1), 2, station=True),
        "chain6.mcmp": gen.chain(random.Random(1), 6),
        "loop3.mcmp": gen.loop(random.Random(1), 3),
        "cmv_chain4.cmv": gen.cmv_chain(random.Random(1), 4),
    }
    return {name: (g.text, g.facts) for name, g in made.items()}


def _session_cases(path: str, station: str = "station", label: str = "elect"):
    for command in SESSION_COMMANDS:
        yield [command, path]
    for pattern in ("m", "star"):
        yield ["detect", path, "--pattern", pattern]
    yield ["electoral", path, "--station", station, "--label", label]
    for command in ("encode", "verify-encoding"):
        for via in ENCODINGS:
            yield [command, path, "--via", via]


def _cmv_cases(path: str):
    yield from (["cmv", "check", path], ["cmv", "encode", path], ["verify-encoding", path, "--via", "lcmv-mcbs"])
    for pattern in ("m", "star"):
        yield ["detect", path, "--pattern", pattern]


def _verdicts():
    """Every command on every fixture and generated input, and each
    exploring command under cut bounds."""
    for name in sorted(corpus.SESSIONS + corpus.UNTYPED):
        yield from _session_cases(f"fixtures/{name}.mcmp")
    for name in sorted(corpus.CMV):
        yield from _cmv_cases(f"fixtures/{name}.cmv")
    for name, (_, facts) in generated().items():
        if name.endswith(".cmv"):
            yield from _cmv_cases(f"$TMP/{name}")
        else:
            yield from _session_cases(f"$TMP/{name}", facts.get("station", "station"), facts.get("label", "elect"))
    for bound in (["--max-states", "2"], ["--max-states", "5"], ["--max-depth", "1"], ["--max-depth", "3"]):
        for command in ("check", "safety", "df"):
            yield [*bound, command, "fixtures/election5.mcmp"]
        yield [*bound, "electoral", "fixtures/election5.mcmp", "--station", "station", "--label", "elect"]
        for name in ("fixtures/election5.mcmp", "fixtures/ping.mcmp", "$TMP/pairs2.mcmp"):
            yield [*bound, "verify-encoding", name, "--via", "scbs-bs"]
        yield [*bound, "verify-encoding", "$TMP/pairs2.mcmp", "--via", "dmp-smp"]
        yield [*bound, "verify-encoding", "fixtures/cmv_chain.cmv", "--via", "lcmv-mcbs"]
        yield [*bound, "--dot", DOT, "detect", "fixtures/election5.mcmp", "--pattern", "m"]
        yield [*bound, "--dot", DOT, "simulate", "$TMP/chain6.mcmp"]
    # bounds out of range, and errors the commands report themselves
    yield ["simulate", "fixtures/ping.mcmp", "--max-steps", "-3"]
    yield ["simulate", "fixtures/ping.mcmp", "--max-steps", "0"]
    yield ["simulate", "$TMP/loop3.mcmp", "--max-steps", "10", "--trace"]
    yield ["safety", "fixtures/ping.mcmp", "--max-states", "0"]
    yield ["detect", "fixtures/ping.mcmp", "--pattern", "m", "--max-depth", "-1"]
    yield ["--dot", DOT, "detect", "fixtures/cmv_m_witness.cmv", "--pattern", "m"]
    yield ["check", "fixtures/missing.mcmp"]
    yield ["cmv", "check", "fixtures/ping.mcmp"]
    yield ["classify", "fixtures/cmv_ping.cmv"]


def _drawn():
    """The commands that write a DOT file, on every session fixture and
    generated session."""
    names = [f"fixtures/{n}.mcmp" for n in sorted(corpus.SESSIONS + corpus.UNTYPED)]
    names += [f"$TMP/{n}" for n in generated() if n.endswith(".mcmp")]
    for path in names:
        yield ["--dot", DOT, "detect", path, "--pattern", "m"]
        yield ["--dot", DOT, "electoral", path, "--station", "station", "--label", "elect"]
        yield ["--dot", DOT, "simulate", path]


def _argparse_cases():
    """Help and the usage errors that argparse reports."""
    yield []
    yield ["cmv"]
    yield ["--help"]
    yield ["cmv", "--help"]
    for command in ("check", "safety", "df", "simulate", "encode", "verify-encoding", "detect", "classify", "electoral"):
        yield [command, "--help"]
    yield ["cmv", "check", "--help"]
    yield ["cmv", "encode", "--help"]
    yield ["frobnicate", "fixtures/ping.mcmp"]
    yield ["cmv", "frobnicate", "fixtures/cmv_ping.cmv"]
    yield ["check"]
    yield ["cmv", "encode"]
    yield ["encode", "fixtures/ping.mcmp", "--via", "nope"]
    yield ["encode", "fixtures/ping.mcmp"]
    yield ["detect", "fixtures/ping.mcmp", "--pattern", "x"]
    yield ["electoral", "fixtures/ping.mcmp", "--station", "station"]
    yield ["simulate", "fixtures/ping.mcmp", "--max-steps", "many"]
    yield ["--max-states", "many", "df", "fixtures/ping.mcmp"]


def cases():
    """Each case as (argv, whether argparse words its output)."""
    for argv in _verdicts():
        yield argv, False
        yield ["--json", *argv], False
    for argv in _drawn():
        yield argv, False
    for argv in _argparse_cases():
        yield argv, True


def python() -> str:
    return "%d.%d" % sys.version_info[:2]


def write_inputs(tmp: Path) -> None:
    for name, (text, _) in generated().items():
        (tmp / name).write_text(text, encoding="utf-8")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], tmp: Path) -> tuple[dict, dict]:
    """Run one case in process, from the repository root with COLUMNS set.
    Returns its manifest entry and what it wrote, by stream."""
    argv = [a.replace("$TMP", str(tmp)) for a in argv]
    dot = tmp / "graph.dot"
    if dot.exists():
        dot.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    written = {"stdout": out.getvalue(), "stderr": err.getvalue()}
    if dot.exists():
        written["dot"] = dot.read_text(encoding="utf-8")
    for text in written.values():
        # an output that named the scratch directory would differ per run
        assert str(tmp) not in text, (argv, text)
    entry = {"exit": code, "dot": None, **{stream: _sha(text.encode()) for stream, text in written.items()}}
    return entry, written


@contextlib.contextmanager
def environment(tmp: Path):
    """The repository root as the working directory, help wrapped to
    COLUMNS, and the generated inputs written under tmp."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(ROOT)
    os.environ["COLUMNS"] = COLUMNS
    try:
        write_inputs(tmp)
        yield
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def load() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def rewrite() -> int:
    import tempfile

    entries = []
    with tempfile.TemporaryDirectory() as tmp, environment(Path(tmp)):
        for argv, by_argparse in cases():
            entry = {"argv": argv, **run(argv, Path(tmp))[0]}
            if by_argparse:
                entry["argparse"] = True
            entries.append(json.dumps(entry, sort_keys=True))
    MANIFEST.write_text(
        '{"python": %s, "cases": [\n%s\n]}\n' % (json.dumps(python()), ",\n".join(entries)), encoding="utf-8"
    )
    print(f"{MANIFEST.name}: {len(entries)} cases under Python {python()}")
    return 0


if __name__ == "__main__":
    sys.exit(rewrite())
