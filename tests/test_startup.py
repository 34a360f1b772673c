"""Each command loads only the layers it runs: a fresh interpreter runs
mcmp's main once and lists the mcmp modules it imported, and none loads
dataclasses.  Also the --via check, which stands in for argparse's choices
so that building the parser loads no encoding."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mcmp import cli, encode

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"

# every command loads these: the front end, the term layer and the kernel
BASE = {"cli", "lts", "syntax"}

# (argv, exit code, the layers loaded beyond BASE); label_ok.mcmp has no
# types block, so parsing it loads no ltypes
LOADS = [
    (["check", "ping.mcmp"], 0, {"typecheck", "ltypes"}),
    (["safety", "ping.mcmp"], 0, {"ltypes"}),
    (["df", "ping.mcmp"], 0, {"ltypes"}),
    (["simulate", "label_ok.mcmp"], 0, {"semantics"}),
    (["classify", "label_ok.mcmp"], 0, set()),
    (["classify", "ping.mcmp"], 0, {"ltypes"}),
    (["detect", "label_ok.mcmp", "--pattern", "m"], 1, {"patterns", "semantics"}),
    (["electoral", "label_ok.mcmp", "--station", "p", "--label", "l2"], 0, {"patterns", "semantics"}),
    (["encode", "ping.mcmp", "--via", "scbs-bs"], 0, {"encode", "ltypes", "semantics"}),
    (["verify-encoding", "ping.mcmp", "--via", "scbs-bs"], 0, {"encode", "ltypes", "semantics"}),
    (["verify-encoding", "cmv_ping.cmv", "--via", "lcmv-mcbs"], 0, {"lcmv", "encode", "ltypes", "semantics"}),
    (["cmv", "check", "cmv_ping.cmv"], 0, {"lcmv"}),
    (["cmv", "encode", "cmv_ping.cmv"], 0, {"lcmv"}),
]

PROBE = """
import contextlib, io, json, sys
from mcmp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m[len("mcmp."):] for m in sys.modules if m.startswith("mcmp.")), "dataclasses" in sys.modules]))
"""


@pytest.mark.parametrize("argv,code,layers", LOADS, ids=[" ".join(argv) for argv, _, _ in LOADS])
def test_command_loads_only_its_layers(argv, code, layers):
    argv = [str(FIX / a) if a.endswith((".mcmp", ".cmv")) else a for a in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    got_code, loaded, dataclasses = json.loads(done.stdout)
    assert got_code == code
    assert set(loaded) == BASE | layers
    assert not dataclasses  # syntax._record makes the records


def _parse(capsys, via):
    try:
        args = cli.build_parser().parse_args(["encode", "f.mcmp", "--via", via])
    except SystemExit as e:
        return e.code, capsys.readouterr().err
    return args.via, capsys.readouterr().err


def test_via_accepts_exactly_the_encodings(capsys):
    for name in encode.ENCODINGS:
        assert _parse(capsys, name) == (name, "")
        for near in (name.upper(), name + "x", name[:-1], " " + name):
            assert _parse(capsys, near)[0] == 2, near


def test_unknown_via_exits_2_naming_every_encoding(capsys):
    code, err = _parse(capsys, "nope")
    assert code == 2
    choices = ", ".join(repr(name) for name in sorted(encode.ENCODINGS))
    assert f"argument --via: invalid choice: 'nope' (choose from {choices})" in err
    # the same through main, for both commands that take --via
    for command in ("encode", "verify-encoding"):
        with pytest.raises(SystemExit) as e:
            cli.main([command, str(FIX / "ping.mcmp"), "--via", "nope"])
        assert e.value.code == 2
        assert choices in capsys.readouterr().err
