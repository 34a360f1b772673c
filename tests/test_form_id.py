"""syntax.form_id, the one numbering of canonical forms: the term table's
fids, alpha-equality, structural congruence and the .cmv explorer's state
keys.  An oracle over the forms the fixture explorations meet, a DAG-shaped
form that tuple == or hash would walk path by path, and the inputs that
numbering forms once brings within a few seconds, each in a fresh
interpreter under a timeout."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from mcmp import lcmv, lts, ltypes, semantics, syntax
from mcmp.syntax import form_id

import corpus
from genutil import bench_gen

ROOT = Path(__file__).resolve().parent.parent


def _with_subforms(form: tuple) -> list:
    """form and every tuple below it, in preorder."""
    out, todo = [], [form]
    while todo:
        f = todo.pop()
        out.append(f)
        todo += [x for x in f if type(x) is tuple]
    return out


def _copy(form: tuple) -> tuple:
    """An equal form that shares no tuple with form."""
    return tuple(_copy(x) if type(x) is tuple else x for x in form)


def _fixture_forms() -> list:
    """Every canonical form, with its subforms, of the states the fixture
    explorations meet: sessions and their processes, contexts and their
    types, and .cmv programs."""
    forms = []
    for name in corpus.SESSIONS + corpus.UNTYPED:
        m, delta = corpus.load(name)
        for state in semantics.explore(m, max_states=300).states:
            forms.append(syntax.canon_session(state))
            forms += [syntax.canon_process(proc) for _, proc in state.parts]
        if delta is not None:
            for ctx in ltypes.explore_contexts(delta, max_states=300).contexts:
                forms.append(ltypes.canon_context(ctx))
                forms += [ltypes._type_form(t) for _, t in ctx.entries]
    for name in corpus.CMV:
        forms += [lcmv.cmv_canon(s) for s in lcmv.explore_cmv(lcmv.parse_cmv(corpus.text(name)), max_states=300).states]
    return [sub for f in forms for sub in _with_subforms(f)]


def test_ids_are_equal_exactly_when_forms_are():
    forms = _fixture_forms()
    ids, memo = {}, {}
    by_form, by_id = {}, {}
    for f in forms:
        i = form_id(f, ids, memo)
        assert by_form.setdefault(f, i) == i, f
        assert by_id.setdefault(i, f) == f, (i, f, by_id[i])
    assert len(by_form) == len(by_id) > 100
    # copies that share no tuple with the numbered forms get the same ids,
    # and a fresh table tells apart exactly the forms the shared one does
    assert all(form_id(_copy(f), ids, memo) == i for f, i in by_form.items())
    fresh, fresh_memo = {}, {}
    assert len({form_id(f, fresh, fresh_memo) for f in forms}) == len(by_form)


def _dag(levels: int, leaf: tuple) -> tuple:
    """A form whose tree has 2**levels leaves, the rightmost leaf as given
    and the others ("ok",), built as a DAG of about 2 * levels tuples."""
    same, last = ("ok",), leaf
    for _ in range(levels):
        same, last = ("sum", same, same), ("sum", same, last)
    return last


def test_a_dag_form_is_read_once_per_tuple():
    ids, memo = {}, {}
    a = form_id(_dag(64, ("ok",)), ids, memo)
    assert len(ids) == 65
    b = form_id(_dag(64, ("ok",)), ids, memo)  # built again, tuple by tuple
    assert a == b and len(ids) == 65
    c = form_id(_dag(64, ("0",)), ids, memo)
    assert c != a and len(ids) == 65 + 65
    table = lts.Terms((), None, None, None)
    assert table.fid_of(_dag(64, ("ok",))) == table.fid_of(_dag(64, ("ok",))) != table.fid_of(_dag(64, ("0",)))


def _fresh(argv: list):
    """python argv in a fresh interpreter that imports mcmp from src, cut
    after 5 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True, env=env, timeout=5)


def _run(argv: list):
    """mcmp --json argv in a fresh interpreter, cut after 5 s."""
    done = _fresh(["-m", "mcmp.cli", "--json", *argv])
    assert "Traceback" not in done.stderr, done.stderr
    return done.returncode, json.loads(done.stdout)


def test_verify_encoding_decides_a_20_message_loop(tmp_path):
    # the i translation's forms share continuations, so alpha_equal on them
    # is fast only if each shared subform is read once
    path = tmp_path / "loop20.mcmp"
    path.write_text(bench_gen().loop(random.Random(1), 20).text)
    code, out = _run(["verify-encoding", path, "--via", "mcbs-scbs"])
    assert code == 0 and out["passed"], out


def test_a_10000_message_chain_is_decided(tmp_path):
    # each state's form is numbered from its continuation's kept number, so
    # the exploration is linear in the chain
    path = tmp_path / "chain10000.mcmp"
    path.write_text(bench_gen().chain(random.Random(1), 10000).text)
    for command in ("df", "safety", "check"):
        code, out = _run(["--max-states", 20000, "--max-depth", 20000, command, path])
        assert code == 0, (command, out)


def test_a_10000_state_cmv_exploration(tmp_path):
    path = tmp_path / "cmv10000.cmv"
    path.write_text(bench_gen().cmv_chain(random.Random(1), 10000).text)
    script = ("import sys; from mcmp import lcmv; "
              "g = lcmv.explore_cmv(lcmv.parse_cmv(open(sys.argv[1]).read()), max_states=20000, max_depth=20000); "
              "print(len(g.work), g.truncated)")
    done = _fresh(["-c", script, path])
    assert done.stdout.split() == ["10001", "None"], done.stderr
