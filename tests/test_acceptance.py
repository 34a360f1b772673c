"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import itertools
import random
import time

import pytest

from mcmp import encode, lcmv, ltypes, patterns, semantics, syntax, typecheck
from mcmp.ltypes import LocalContext, End
from mcmp.syntax import Nil, Session, Success, parse_ltype, parse_session

import corpus
from genutil import all_binary_processes, gen_rec_type, gen_session, widen


def _report(criterion: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"\n[acceptance] {criterion}: PASS ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"{criterion} exceeded its runtime budget"


def test_criterion_1_typability_table():
    started = time.monotonic()
    for name, (inside, outside) in corpus.FAMILY_TABLE.items():
        m, _ = corpus.load(name)
        got = syntax.classify(m)
        assert inside <= got and not (outside & got), name
    for name in sorted(set(corpus.FAMILY_TABLE) - {"p11"}):
        m, delta = corpus.load(name)
        errs = typecheck.check_process(typecheck.SharedContext(), m.process_of("p"), delta.type_of("p"))
        assert errs == [], (name, errs)
    # p11 fails against every candidate type over its labels, depth <= 3
    from test_typecheck import _candidate_input_types

    m11, _ = corpus.load("p11")
    candidates = [t for t in _candidate_input_types(["l1", "l2"], 3) if ltypes.well_formed(t)]
    assert len(candidates) > 100
    for t in candidates:
        assert typecheck.check_process(typecheck.SharedContext(), m11.process_of("p"), t)
    _report("criterion 1 (typability table)", started, 5.0)


def test_criterion_2_election():
    started = time.monotonic()
    m6, d6 = corpus.load("election6")
    assert typecheck.check_session(m6, d6) == []
    assert ltypes.is_safe(d6)[0]
    assert ltypes.is_deadlock_free(d6)[0]
    m5, _ = corpus.load("election5")
    count, _ = semantics.maximal_executions(m5)
    assert count == 10
    graph = semantics.explore(m6)
    assert not graph.truncated
    for i in range(len(graph.states)):
        if graph.successors(i):
            continue
        for _, proc in graph.states[i].parts:
            assert isinstance(proc, (Nil, Success))
    _report("criterion 2 (election)", started, 10.0)


def test_criterion_3_safety_df_separations():
    started = time.monotonic()
    T = parse_ltype
    delta2 = LocalContext((("p", T("q!l(bool).end")),))
    assert ltypes.is_safe(delta2)[0]
    assert not ltypes.is_deadlock_free(delta2)[0]
    delta3 = LocalContext(
        (
            ("p", T("rec t.q!l1(bool).t")),
            ("q", T("rec t.p?l1(bool).t")),
            ("r", T("s!l2(bool).end")),
            ("s", T("r?l2(nat).end")),
        )
    )
    assert ltypes.is_deadlock_free(delta3)[0]
    assert not ltypes.is_safe(delta3)[0]
    remark = LocalContext((("p", T("q!l1(bool).end + q!l2(bool).end")), ("q", T("p?l1(bool).end"))))
    smaller = LocalContext((("p", T("q!l2(bool).end")), ("q", T("p?l1(bool).end"))))
    assert ltypes.context_subtype(smaller, remark)
    assert ltypes.is_deadlock_free(remark)[0]
    assert not ltypes.is_deadlock_free(smaller)[0]
    _report("criterion 3 (safety/df separations)", started, 5.0)


def test_criterion_4_subtyping():
    started = time.monotonic()
    T = parse_ltype
    assert ltypes.subtype(
        T("p?l1(bool).end + p?l2(bool).end + p!l3(bool).end"),
        T("p?l1(bool).end + p!l3(bool).end + p!l4(bool).end"),
    )
    assert ltypes.subtype(
        T("p?l1(bool).end + p?l2(bool).end + q!l3(bool).end"),
        T("p?l1(bool).end + q!l3(bool).end + q!l4(bool).end"),
    )
    # the pointwise SSet collapse must be rejected
    assert not ltypes.context_subtype(
        LocalContext((("p", T("q!l1(bool).end")), ("q", T("p?l2(bool).end")))),
        LocalContext((("p", T("q!l1(bool).end + q!l2(bool).end")), ("q", T("p?l1(bool).end + p?l2(bool).end")))),
    )
    rng = random.Random(20260810)
    labels = ["l1", "l2", "l3"]
    generated = 0
    for _ in range(10000):
        t = gen_rec_type(rng, ["q", "r"], labels, 3)
        assert ltypes.subtype(t, t)
        t2 = widen(rng, t, labels)
        t3 = widen(rng, t2, labels)
        assert ltypes.subtype(t, t2) and ltypes.subtype(t2, t3) and ltypes.subtype(t, t3)
        generated += 1
    assert generated >= 10000
    _report("criterion 4 (subtyping preorder)", started, 120.0)


def test_criterion_5_executable_theorems():
    started = time.monotonic()
    typed = []
    for name in sorted(corpus.SESSIONS):
        m, delta = corpus.load(name)
        if delta is not None:
            typed.append((name, m, delta))
    assert len(typed) >= 15
    names = {name for name, _, _ in typed}
    assert {"m_scmp", "m_mp", "m_mcbs", "election6"} <= names
    violations = []
    for name, m, delta in typed:
        safe = ltypes.is_safe(delta)[0]
        per_part_ok = not typecheck.check_session(m, delta) if safe else True
        graph = semantics.explore(m, max_states=10000)
        if graph.truncated:
            violations.append((name, "truncated"))
            continue
        if safe and per_part_ok:
            # subject reduction along every edge
            contexts = {graph.root: delta}
            todo = [graph.root]
            while todo:
                i = todo.pop()
                for step, j in graph.successors(i):
                    succ = typecheck.step_context(contexts[i], step)
                    errs = typecheck.check_session(semantics.apply_step(graph.states[i], step), succ)
                    if errs:
                        violations.append((name, step.describe(), errs))
                    if j not in contexts:
                        contexts[j] = succ
                        todo.append(j)
            # communication safety on every reachable state
            for state in graph.states:
                flag, witness = typecheck.is_session_error(state)
                if flag:
                    violations.append((name, "session error", witness))
        if safe and per_part_ok and ltypes.is_deadlock_free(delta)[0]:
            for i in range(len(graph.states)):
                if graph.successors(i):
                    continue
                for _, proc in graph.states[i].parts:
                    if not isinstance(proc, (Nil, Success)):
                        violations.append((name, "stuck non-terminated", i))
    assert violations == []
    _report("criterion 5 (executable theorems)", started, 60.0)


def test_criterion_6_encodings():
    started = time.monotonic()
    bounds = {
        "scbs-bs": 2,
        "smp-mp": 2,
        "lcmv-mcbs": 2,
        "mcbs-scbs": 3,
        "dmp-smp": 3,
        "mcmp-msmp": 3,
        "mcbs-bs": 4,
        "dmp-mp": 4,
    }
    for enc_id, bound in bounds.items():
        for name in corpus.ENCODING_FIXTURES[enc_id]:
            if enc_id == "lcmv-mcbs":
                program = lcmv.parse_cmv(corpus.text(name))
                report = lcmv.verify_correspondence(program, max_states=5000, max_depth=128)
            else:
                m, _ = corpus.load(name)
                report = encode.verify_correspondence(m, enc_id)
            assert report.passed(), (enc_id, name, report.failures)
            assert report.max_emulation_factor <= bound, (enc_id, name, report.max_emulation_factor)
    # golden clauses: every figure row reproduced on a hand-picked input
    m = parse_session("role p = q!l1(tt).0 + q!l2(tt).0 role q = p?l1(x).0 + p?l2(x).0")
    enc_out = encode.encode(m, "scbs-bs")
    assert syntax.render_process(enc_out.process_of("p")) == "q?enc_o(w0).q!l1(tt).0 + q?enc_o(w0).q!l2(tt).0"
    assert syntax.render_process(enc_out.process_of("q")) == "p!enc_o(tt).(p?l1(x).0 + p?l2(x).0)"
    mixed, _ = corpus.load("mixed2")
    low = syntax.render_process(encode.encode(mixed, "mcbs-scbs").process_of("p"))
    assert low.startswith("q!l2(tt).0 + q!enc_i(tt).(q?l1(x).ok + q?reset(")
    oi = encode.encode(mixed, "mcbs-bs")
    assert all(b.prefix.label == "enc_o" for b in oi.process_of("p").branches)
    per_peer = encode.encode(corpus.load("m_scmp")[0], "mcmp-msmp")
    assert "MSMP" in syntax.classify(per_peer)
    smp = encode.encode(corpus.load("smp_pair")[0], "smp-mp")
    assert "MP" in syntax.classify(smp)
    dmp_s = encode.encode(corpus.load("dmp3")[0], "dmp-smp")
    assert "SMP" in syntax.classify(dmp_s)
    dmp_m = encode.encode(corpus.load("dmp3")[0], "dmp-mp")
    assert "MP" in syntax.classify(dmp_m)
    ping = lcmv.parse_cmv(corpus.text("cmv_ping"))
    lenc = lcmv.encode_lcmv_to_mcbs(ping)
    assert syntax.render_process(lenc.process_of("x")) == "y!l.o(tt).0"
    assert syntax.render_process(lenc.process_of("y")) == "x?l.o(z).0"
    _report("criterion 6 (encodings)", started, 120.0)


def _directed_depth1(peers):
    # every directed (single-peer) mixed choice with <=2 summands, 2 labels
    # and terminated continuations, plus the terminated processes
    leaves = [Nil(), Success()]
    out = [Nil(), Success()]
    for peer in peers:
        for p in all_binary_processes(peer, ["l1", "l2"], leaves):
            if not isinstance(p, (Nil, Success)):
                out.append(p)
    return out


def _scmp_depth1(peers):
    # every separate choice over two peers with <=2 summands, 2 labels and
    # terminated continuations
    from mcmp.syntax import Branch, Choice, Prefix, TT

    leaves = [Nil(), Success()]
    heads = [(peer, label) for peer in peers for label in ["l1", "l2"]]
    out = [Nil(), Success()]
    for pol in "!?":
        for size in (1, 2):
            for combo in itertools.combinations(heads, size):
                for conts in itertools.product(leaves, repeat=size):
                    branches = []
                    for (target, label), cont in zip(combo, conts):
                        if pol == "!":
                            branches.append(Branch(Prefix(target, "!", label, payload=TT), cont))
                        else:
                            branches.append(Branch(Prefix(target, "?", label, var="x"), cont))
                    out.append(Choice(tuple(branches)))
    return out


def test_criterion_7_patterns():
    started = time.monotonic()
    assert patterns.detect_m(corpus.load("m_scmp")[0]) is not None
    assert patterns.detect_m(lcmv.parse_cmv(corpus.text("cmv_m_witness"))) is not None
    assert patterns.detect_star(corpus.load("star_msmp")[0]) is not None

    # exhaustive sweep: every two-party session (covers MCBS, SCBS and BS)
    # with <=2 summands per choice, 2 labels, depth-1 continuations
    leaves = [Nil(), Success()]
    procs_p = all_binary_processes("q", ["l1", "l2"], leaves)
    procs_q = all_binary_processes("p", ["l1", "l2"], leaves)
    for pp, qq in itertools.product(procs_p, procs_q):
        assert patterns.detect_m(Session((("p", pp), ("q", qq)))) is None

    # exhaustive sweep: every three-party directed session (covers DMP, SMP
    # and MP) of the same size
    dp = _directed_depth1(["q", "r"])
    dq = _directed_depth1(["p", "r"])
    dr = _directed_depth1(["p", "q"])
    for pp, qq, rr in itertools.product(dp, dq, dr):
        m = Session((("p", pp), ("q", qq), ("r", rr)))
        assert patterns.detect_m(m) is None, syntax.render_session(m)

    # exhaustive star sweep over three-party separate-choice sessions
    sp = _scmp_depth1(["q", "r"])
    sq = _scmp_depth1(["p", "r"])
    sr = _scmp_depth1(["p", "q"])
    for pp, qq, rr in itertools.product(sp, sq, sr):
        m = Session((("p", pp), ("q", qq), ("r", rr)))
        assert patterns.detect_star(m) is None, syntax.render_session(m)

    # random deep sweeps: <=3 participants, <=2 summands, <=2 labels, depth 2
    for shape, samples, seed in [("dmp", 6000, 7101), ("smp", 4000, 7102), ("mp", 4000, 7103)]:
        rng = random.Random(seed)
        for _ in range(samples):
            m = gen_session(rng, ["p", "q", "r"], ["l1", "l2"], 2, shape)
            assert patterns.detect_m(m) is None, syntax.render_session(m)
    rng = random.Random(7777)
    for _ in range(4000):
        m = gen_session(rng, ["p", "q"], ["l1", "l2"], 2, "mcmp")
        assert patterns.detect_m(m) is None
    rng = random.Random(8888)
    for _ in range(4000):
        m = gen_session(rng, ["p", "q", "r"], ["l1", "l2"], 2, "scmp")
        assert patterns.detect_star(m) is None
    rng = random.Random(9999)
    labels = ["l1", "l2"]
    for _ in range(3000):
        def branches(bias):
            out = []
            for _ in range(rng.randint(1, 2)):
                lab = rng.choice(labels)
                out.append(f"{lab}!tt.0" if rng.random() < bias else f"{lab}?z.0")
            return " + ".join(out)

        program = lcmv.parse_cmv(f"(new x y)(lin x ({branches(0.6)}) | lin y ({branches(0.4)}))")
        assert patterns.detect_m(program) is None
    _report("criterion 7 (patterns)", started, 300.0)


def test_criterion_8_electoral():
    started = time.monotonic()
    m, _ = corpus.load("election5")
    ok, _ = patterns.is_electoral(m, "station", "elect")
    assert ok
    broken = Session(tuple((n, Nil() if n == "b" else p) for n, p in m.parts))
    ok2, witness = patterns.is_electoral(broken, "station", "elect")
    assert not ok2 and witness is not None
    _report("criterion 8 (electoral)", started, 10.0)
