import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mcmp import cli, encode

import corpus

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def fixture_dir():
    return corpus.FIXTURES


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_election(fixture_dir, capsys):
    code, out = run(capsys, "check", str(fixture_dir / "election6.mcmp"))
    assert code == 0 and "well-typed" in out


def test_check_unsafe_context_fails(fixture_dir, capsys):
    code, out = run(capsys, "check", str(fixture_dir / "m_scmp.mcmp"))
    assert code == 1 and "context-unsafe" in out


def test_check_requires_types_block(fixture_dir, capsys):
    code, _ = run(capsys, "check", str(fixture_dir / "label_error.mcmp"))
    assert code == 2


def test_check_p11_fails_with_type_errors(fixture_dir, capsys):
    code, out = run(capsys, "--json", "check", str(fixture_dir / "p11.mcmp"))
    assert code == 1
    data = json.loads(out)
    assert not data["ok"] and data["errors"]


def test_parse_error_is_usage(tmp_path, capsys):
    bad = tmp_path / "bad.mcmp"
    bad.write_text("role p = q!enc_o(tt).0\n")
    code, _ = run(capsys, "check", str(bad))
    assert code == 2


def test_safety_and_df(fixture_dir, capsys):
    assert run(capsys, "safety", str(fixture_dir / "election6.mcmp"))[0] == 0
    assert run(capsys, "safety", str(fixture_dir / "m_scmp.mcmp"))[0] == 1
    assert run(capsys, "df", str(fixture_dir / "m_scmp.mcmp"))[0] == 0
    assert run(capsys, "df", str(fixture_dir / "election5.mcmp"))[0] == 1


def test_classify(fixture_dir, capsys):
    code, out = run(capsys, "--json", "classify", str(fixture_dir / "p8.mcmp"))
    assert code == 0
    assert json.loads(out)["subcalculi"] == ["DMP", "MCBS", "MCMP", "MSMP"]


def test_simulate(fixture_dir, capsys):
    code, out = run(capsys, "--json", "simulate", str(fixture_dir / "ping.mcmp"))
    assert code == 0
    data = json.loads(out)
    # p = ok and q = 0: terminated, not stuck
    assert not data["stuck"] and data["success"]


def test_detect_m(fixture_dir, capsys):
    code, out = run(capsys, "--json", "detect", str(fixture_dir / "m_scmp.mcmp"), "--pattern", "m")
    assert code == 0 and json.loads(out)["found"]
    code, out = run(capsys, "--json", "detect", str(fixture_dir / "ping.mcmp"), "--pattern", "m")
    assert code == 1


def test_detect_star(fixture_dir, capsys):
    code, out = run(capsys, "--json", "detect", str(fixture_dir / "star_msmp.mcmp"), "--pattern", "star")
    assert code == 0 and json.loads(out)["found"]


def test_electoral(fixture_dir, capsys):
    code, _ = run(capsys, "electoral", str(fixture_dir / "election5.mcmp"), "--station", "station", "--label", "elect")
    assert code == 0


def test_encode_emits_target_and_order(fixture_dir, capsys):
    code, out = run(capsys, "--json", "encode", str(fixture_dir / "ping.mcmp"), "--via", "scbs-bs")
    assert code == 0
    data = json.loads(out)
    assert "enc_o" in data["target"]
    assert data["order"]["p"] == ["p<q"]


def test_verify_encoding(fixture_dir, capsys):
    code, out = run(capsys, "--json", "verify-encoding", str(fixture_dir / "m_mcbs.mcmp"), "--via", "mcbs-scbs")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["max_emulation_factor"] <= 3


def test_verify_encoding_lcmv(fixture_dir, capsys):
    code, out = run(capsys, "--json", "verify-encoding", str(fixture_dir / "cmv_chain.cmv"), "--via", "lcmv-mcbs")
    assert code == 0 and json.loads(out)["passed"]


def test_cmv_check_and_encode(fixture_dir, capsys):
    assert run(capsys, "cmv", "check", str(fixture_dir / "cmv_ping.cmv"))[0] == 0
    assert run(capsys, "cmv", "check", str(fixture_dir / "cmv_untypable.cmv"))[0] == 1
    code, out = run(capsys, "cmv", "encode", str(fixture_dir / "cmv_ping.cmv"))
    assert code == 0 and "l.o" in out


def test_truncation_exit_code(fixture_dir, capsys):
    code, _ = run(capsys, "--max-states", "2", "verify-encoding", str(fixture_dir / "election5.mcmp"), "--via", "mcmp-msmp")
    assert code == 3


def test_safety_and_df_honour_bounds(fixture_dir, capsys):
    # a context cut off by a bound would otherwise read as stuck or unsafe
    for command in ("check", "safety", "df"):
        code, out = run(capsys, "--json", command, str(fixture_dir / "election5.mcmp"), "--max-depth", "1")
        assert code == 3 and json.loads(out)["truncated"]
        code, _ = run(capsys, command, str(fixture_dir / "election5.mcmp"), "--max-states", "2")
        assert code == 3


def test_negative_max_steps_is_a_usage_error(fixture_dir, capsys):
    # a negative step budget used to run no step and exit 0
    code, out = run(capsys, "--json", "simulate", str(fixture_dir / "ping.mcmp"), "--max-steps", "-3")
    assert code == 2 and json.loads(out) == {"error": "--max-steps must not be negative"}
    assert run(capsys, "simulate", str(fixture_dir / "ping.mcmp"), "--max-steps", "-1")[0] == 2
    code, out = run(capsys, "--json", "simulate", str(fixture_dir / "ping.mcmp"), "--max-steps", "0")
    assert code == 0 and json.loads(out)["trace"] == []


def test_deep_nesting_is_truncation_not_traceback(tmp_path):
    # a 1200-message chain parses, for the parser reads a run of prefixes in
    # a loop, but it nests deeper than the type checker's recursion allows
    n = 1200
    p = [f"q!l{i}(tt)" if i % 2 == 0 else f"q?l{i}(x{i})" for i in range(n)]
    q = [f"p?l{i}(x{i})" if i % 2 == 0 else f"p!l{i}(ff)" for i in range(n)]
    tp = [f"q!l{i}(bool)" if i % 2 == 0 else f"q?l{i}(bool)" for i in range(n)]
    tq = [f"p?l{i}(bool)" if i % 2 == 0 else f"p!l{i}(bool)" for i in range(n)]
    path = tmp_path / "chain.mcmp"
    path.write_text(
        f"role p = {'.'.join(p)}.ok\nrole q = {'.'.join(q)}.0\n"
        f"types {{\n  p: {'.'.join(tp)}.end\n  q: {'.'.join(tq)}.end\n}}\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    for command, code in (("check", 3), ("simulate", 0)):
        argv = [sys.executable, "-m", "mcmp.cli", "--json", command, str(path)]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        assert json.loads(done.stdout).get("truncated", False) == (code == 3)


def test_encode_stops_at_the_output_bound(tmp_path):
    # the i table repeats continuations, so the text of a 200-message
    # chain's translation doubles per message while the term stays linear
    n = 200
    p = [f"q!l{i}(tt)" if i % 2 == 0 else f"q?l{i}(x{i})" for i in range(n)]
    q = [f"p?l{i}(x{i})" if i % 2 == 0 else f"p!l{i}(ff)" for i in range(n)]
    path = tmp_path / "chain.mcmp"
    path.write_text(f"role p = {'.'.join(p)}.ok\nrole q = {'.'.join(q)}.0\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    argv = [sys.executable, "-m", "mcmp.cli", "--json", "encode", str(path), "--via", "mcbs-scbs"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=2)
    assert done.returncode == 3, done.stderr
    out = json.loads(done.stdout)
    assert out["truncated"] and "output bound of 16 MiB" in out["error"]


def test_verify_encoding_stops_at_its_bound(tmp_path):
    # the target is explored by canonical forms, which spell out every
    # repeated continuation: a 100-message chain's root alone would spell
    # 1.7e17 characters under the i table
    n = 100
    p = [f"q!l{i}(tt)" if i % 2 == 0 else f"q?l{i}(x{i})" for i in range(n)]
    q = [f"p?l{i}(x{i})" if i % 2 == 0 else f"p!l{i}(ff)" for i in range(n)]
    path = tmp_path / "chain.mcmp"
    path.write_text(f"role p = {'.'.join(p)}.ok\nrole q = {'.'.join(q)}.0\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    out = {}
    for via, code in (("mcbs-scbs", 3), ("scbs-bs", 0)):
        argv = [sys.executable, "-m", "mcmp.cli", "--json", "verify-encoding", str(path), "--via", via]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == code, done.stderr
        out[via] = json.loads(done.stdout)
    assert out["mcbs-scbs"]["truncated"] and "past verify-encoding's bound of 1 GiB" in out["mcbs-scbs"]["error"]
    assert out["scbs-bs"]["passed"]


def test_cmv_encode_prints_long_chains(tmp_path):
    # each side's translation nests 600 prefixes, past what a printer that
    # recurses per prefix can print
    n = 400
    x = " ".join(f"lin x (m{i}!tt." if i % 2 == 0 else f"lin x (m{i}?v{i}." for i in range(n))
    y = " ".join(f"lin y (m{i}?v{i}." if i % 2 == 0 else f"lin y (m{i}!ff." for i in range(n))
    path = tmp_path / "chain.cmv"
    path.write_text(f"(new x y)({x} 0{')' * n} | {y} ok{')' * n})\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    argv = [sys.executable, "-m", "mcmp.cli", "--json", "cmv", "encode", str(path)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    out = json.loads(done.stdout)
    assert out["via"] == "lcmv-mcbs"
    assert "m399" in out["target"]


def _cmv_chain(n: int) -> str:
    """A linear program whose endpoints exchange n messages in alternating
    directions; n + 1 states, n steps deep."""
    x = " ".join(f"lin x (m{i}!tt." if i % 2 == 0 else f"lin x (m{i}?v{i}." for i in range(n))
    y = " ".join(f"lin y (m{i}?v{i}." if i % 2 == 0 else f"lin y (m{i}!{i}." for i in range(n))
    return f"(new x y)({x} 0{')' * n} | {y} ok{')' * n})\n"


def test_max_depth_bounds_cmv_sources(tmp_path, capsys):
    # as for a session source, a bound that cuts the source exploration short
    # is exit 3, not a report on the part explored
    path = tmp_path / "chain.cmv"
    path.write_text(_cmv_chain(100))
    argv = ["--json", "verify-encoding", str(path), "--via", "lcmv-mcbs"]
    code, out = run(capsys, *argv, "--max-depth", "3")
    assert code == 3 and json.loads(out) == {"error": "source exploration truncated by the depth bound", "truncated": True}
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["passed"]
    # the default depth, 256, bounds a longer chain
    path.write_text(_cmv_chain(300))
    assert run(capsys, *argv)[0] == 3
    assert run(capsys, *argv, "--max-depth", "1000")[0] == 0


def test_detect_decides_deep_cmv_chains(tmp_path, capsys):
    # y sends the variable of its first input back in its last message, so
    # the one step from the root substitutes 1500 prefixes deep
    n = 1500
    path = tmp_path / "chain.cmv"
    path.write_text(_cmv_chain(n).replace(f"m{n - 1}!{n - 1}.", f"m{n - 1}!v0."))
    code, out = run(capsys, "--json", "detect", str(path), "--pattern", "m")
    assert (code, json.loads(out)) == (1, {"found": False})


def _session_chain(k: int) -> str:
    """p and q exchange k messages in alternating directions, with a types
    block; k + 1 states, k steps deep."""
    roles = {"p": [], "q": []}
    types = {"p": [], "q": []}
    for i in range(k):
        sender, receiver = ("p", "q") if i % 2 == 0 else ("q", "p")
        roles[sender].append(f"{receiver}!m{i}(tt)")
        roles[receiver].append(f"{sender}?m{i}(v{i})")
        types[sender].append(f"{receiver}!m{i}(bool)")
        types[receiver].append(f"{sender}?m{i}(bool)")
    return (
        f"role p = {'.'.join(roles['p'])}.ok\nrole q = {'.'.join(roles['q'])}.0\n"
        f"types {{\n  p: {'.'.join(types['p'])}.end\n  q: {'.'.join(types['q'])}.end\n}}\n"
    )


def test_source_exactly_max_depth_deep_decides(tmp_path, capsys):
    # the last state of a chain k steps long lies k steps deep and has no
    # successor, so --max-depth k explores it in full; k - 1 cuts it short
    path = tmp_path / "chain.cmv"
    path.write_text(_cmv_chain(100))
    code, out = run(capsys, "--json", "verify-encoding", str(path), "--via", "lcmv-mcbs", "--max-depth", "100")
    assert code == 0 and json.loads(out)["passed"]
    assert run(capsys, "--json", "verify-encoding", str(path), "--via", "lcmv-mcbs", "--max-depth", "99")[0] == 3
    k = 12
    path = tmp_path / "chain.mcmp"
    path.write_text(_session_chain(k))
    for argv in (["safety", str(path)], ["df", str(path)], ["verify-encoding", str(path), "--via", "scbs-bs"]):
        assert run(capsys, "--json", *argv, "--max-depth", str(k))[0] == 0, argv
        code, out = run(capsys, "--json", *argv, "--max-depth", str(k - 1))
        assert code == 3 and json.loads(out)["truncated"], argv


def test_closed_stdout_keeps_the_verdict(tmp_path, fixture_dir):
    # the reader of stdout is gone before the command writes: no traceback,
    # and the exit code is still the command's verdict, whether the output
    # fails to go out while the command runs (a long session) or at exit
    n = 200
    p = [f"q!l{i}(tt)" if i % 2 == 0 else f"q?l{i}(x{i})" for i in range(n)]
    q = [f"p?l{i}(x{i})" if i % 2 == 0 else f"p!l{i}(ff)" for i in range(n)]
    chain = tmp_path / "chain.mcmp"
    chain.write_text(f"role p = {'.'.join(p)}.ok\nrole q = {'.'.join(q)}.0\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    cases = [
        (["--json", "simulate", str(chain), "--max-steps", "3"], 0),
        (["simulate", str(chain), "--max-steps", "3", "--trace"], 0),
        (["--json", "cmv", "check", str(fixture_dir / "cmv_untypable.cmv")], 1),
    ]
    for argv, verdict in cases:
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "mcmp.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert done.returncode == verdict, (argv, done.stderr)
        assert done.stderr == "", (argv, done.stderr)


def test_dot_output(fixture_dir, capsys, tmp_path):
    dot = tmp_path / "graph.dot"
    code, _ = run(capsys, "--dot", str(dot), "simulate", str(fixture_dir / "ping.mcmp"))
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_global_flags_accepted_after_subcommand(fixture_dir, capsys):
    code, out = run(capsys, "classify", "--json", str(fixture_dir / "p8.mcmp"))
    assert code == 0
    assert json.loads(out)["subcalculi"] == ["DMP", "MCBS", "MCMP", "MSMP"]
    code, out = run(capsys, "verify-encoding", str(fixture_dir / "ping.mcmp"), "--via", "scbs-bs", "--json")
    assert code == 0 and json.loads(out)["passed"]


def test_json_output_deterministic(fixture_dir, capsys):
    _, out1 = run(capsys, "--json", "verify-encoding", str(fixture_dir / "mixed2.mcmp"), "--via", "mcbs-bs")
    _, out2 = run(capsys, "--json", "verify-encoding", str(fixture_dir / "mixed2.mcmp"), "--via", "mcbs-bs")
    assert out1 == out2
    _, c1 = run(capsys, "--json", "classify", str(fixture_dir / "election6.mcmp"))
    _, c2 = run(capsys, "--json", "classify", str(fixture_dir / "election6.mcmp"))
    assert c1 == c2


def test_json_output_independent_of_earlier_parses(fixture_dir, capsys):
    # nothing a command prints depends on what the process parsed before
    commands = [
        ["--json", "detect", str(fixture_dir / "m_scmp.mcmp"), "--pattern", "m"],
        ["--json", "check", str(fixture_dir / "p11.mcmp")],
    ]
    first = [run(capsys, *argv) for argv in commands]
    for name in ("election5", "election6", "pingpong_rec", "mixed2"):
        run(capsys, "simulate", str(fixture_dir / f"{name}.mcmp"))
    assert [run(capsys, *argv) for argv in commands] == first


def test_detect_reads_cmv_programs(fixture_dir, capsys, tmp_path):
    from mcmp import lcmv, patterns

    path = str(fixture_dir / "cmv_m_witness.cmv")
    code, out = run(capsys, "--json", "detect", path, "--pattern", "m")
    expected = patterns.detect_m(lcmv.parse_cmv((fixture_dir / "cmv_m_witness.cmv").read_text()))
    assert code == 0 and json.loads(out) == {"found": True, "witness": json.loads(expected.to_json())}
    # detect draws no state graph for a .cmv program: --dot is a usage error
    dot = tmp_path / "graph.dot"
    code, out = run(capsys, "--json", "--dot", str(dot), "detect", path, "--pattern", "m")
    assert code == 2 and ".cmv" in json.loads(out)["error"] and not dot.exists()


# bounds that cut the explorations of _contract_cases short, and the name
# each exit-3 message gives the bound
BOUND_CUTS = {("--max-states", "2"): "states", ("--max-depth", "1"): "depth"}


def _contract_cases():
    """Every command on every fixture, every encoding for encode and
    verify-encoding, with the fixture given by file name; and each exploring
    command cut short by each bound."""
    for name in sorted(corpus.SESSIONS + corpus.UNTYPED):
        path = f"{name}.mcmp"
        for command in ("check", "safety", "df", "simulate", "classify"):
            yield [command, path]
        for pattern in ("m", "star"):
            yield ["detect", path, "--pattern", pattern]
        yield ["electoral", path, "--station", "station", "--label", "elect"]
        for command in ("encode", "verify-encoding"):
            for via in sorted(encode.ENCODINGS):
                yield [command, path, "--via", via]
    for name in sorted(corpus.CMV):
        path = f"{name}.cmv"
        yield from (["cmv", "check", path], ["cmv", "encode", path], ["verify-encoding", path, "--via", "lcmv-mcbs"])
        for pattern in ("m", "star"):
            yield ["detect", path, "--pattern", pattern]
    # bounds out of range are usage errors
    yield ["simulate", "ping.mcmp", "--max-steps", "-3"]
    yield ["safety", "ping.mcmp", "--max-states", "0"]
    yield ["detect", "ping.mcmp", "--pattern", "m", "--max-depth", "-1"]
    # election5 cuts every exploration, ping.mcmp's source fits and its
    # target does not
    for bound in BOUND_CUTS:
        for command in ("check", "safety", "df"):
            yield [command, "election5.mcmp", *bound]
        yield ["electoral", "election5.mcmp", "--station", "station", "--label", "elect", *bound]
        for name in ("election5.mcmp", "ping.mcmp"):
            yield ["verify-encoding", name, "--via", "scbs-bs", *bound]
        yield ["verify-encoding", "cmv_chain.cmv", "--via", "lcmv-mcbs", *bound]


@pytest.mark.parametrize("argv", list(_contract_cases()), ids=" ".join)
def test_cli_contract(fixture_dir, capsys, argv):
    # the README's contract: a known exit code, JSON on stdout, a witness
    # with every failed property, and the same bytes when asked again
    argv = ["--json"] + [str(fixture_dir / a) if a.endswith((".mcmp", ".cmv")) else a for a in argv]
    code, out = run(capsys, *argv)
    assert code in (0, 1, 2, 3)
    data = json.loads(out)
    if code == 1:
        witnessed = any(data.get(key) for key in ("errors", "witness", "failures", "error"))
        assert witnessed or (argv[1] == "detect" and data["found"] is False), out
    # a bound below its least value is a usage error with a message
    least = {"--max-steps": 0, "--max-states": 1, "--max-depth": 1}
    if any(a in least and int(b) < least[a] for a, b in zip(argv, argv[1:])):
        assert code == 2 and data["error"], out
    for bound in zip(argv, argv[1:]):
        if bound in BOUND_CUTS:
            assert code == 3 and f"the {BOUND_CUTS[bound]} bound" in data["error"], out
    assert run(capsys, *argv) == (code, out)
