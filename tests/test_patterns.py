import itertools
import json
import random
import sys

import pytest

from mcmp import cli, lcmv, patterns, semantics, syntax
from mcmp.patterns import detect_m, detect_star, is_electoral
from mcmp.syntax import Nil, Session, classify, parse_session

import corpus
from genutil import all_binary_processes, gen_process, gen_session


def test_m_witness_in_m_scmp():
    m, _ = corpus.load("m_scmp")
    w = detect_m(m)
    assert w is not None and w.kind == "m"
    # witness consistency: b conflicts a and c; a, c distributable
    a, b, c = (set(cap) for cap in w.consumed)
    assert a & b and b & c and not (a & c)


def test_m_witness_in_cmv_plus():
    p = lcmv.parse_cmv(corpus.text("cmv_m_witness"))
    w = detect_m(p)
    assert w is not None
    a, b, c = (set(cap) for cap in w.consumed)
    assert a & b and b & c and not (a & c)


# two copies of one x/y pair: cmv_canon does not name components, so every
# step reaches one state, though the steps on {0, 1}, {1, 2} and {2, 3}
# pass the conflict checks
DUP_CMV = "(new x y)(lin x (a!tt.0) | lin y (a?z.0) | lin x (a!tt.0) | lin y (a?z.0))\n"


def test_no_m_in_cmv_steps_reaching_one_state(tmp_path, capsys):
    p = lcmv.parse_cmv(DUP_CMV)
    steps = lcmv.cmv_enabled(p)
    assert {frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})} <= {step.consumed for step, _ in steps}
    assert len({lcmv.cmv_canon(succ) for _, succ in steps}) == 1
    assert detect_m(p) is None
    path = tmp_path / "dup.cmv"
    path.write_text(DUP_CMV)
    assert cli.main(["--json", "detect", str(path), "--pattern", "m"]) == 1
    assert json.loads(capsys.readouterr().out) == {"found": False}


def test_no_m_in_nil():
    assert detect_m(parse_session("role p = 0")) is None


def test_no_m_in_two_party_sessions():
    # binary sessions have a single choice per side: conflicts collapse
    rng = random.Random(17)
    for _ in range(400):
        m = gen_session(rng, ["p", "q"], ["l1", "l2"], 2, "mcmp")
        assert detect_m(m) is None


def test_star_witness_in_star_msmp():
    m, _ = corpus.load("star_msmp")
    w = detect_star(m)
    assert w is not None and w.kind == "star"
    consumed = [set(c) for c in w.consumed]
    for i in range(5):
        for j in range(i + 1, 5):
            neighbours = (j - i) in (1, 4)
            assert bool(consumed[i] & consumed[j]) == neighbours


def test_no_star_in_m_scmp():
    m, _ = corpus.load("m_scmp")
    assert detect_star(m) is None


def test_witness_json(capsys):
    path = str(corpus.FIXTURES / "m_scmp.mcmp")
    assert cli.main(["detect", path, "--pattern", "m"]) == 0
    assert '"kind": "m"' in capsys.readouterr().out
    assert cli.main(["--json", "detect", path, "--pattern", "m"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["found"] and set(data["witness"]) == {"kind", "steps", "consumed", "conflict_edges"}
    assert data["witness"]["kind"] == "m"


# ---------------------------------------------------------------------------
# absence sweeps


def _sweep_m_absent(sessions):
    for m in sessions:
        w = detect_m(m)
        assert w is None, syntax.render_session(m)


def test_sweep_exhaustive_binary_mcbs_scbs_bs():
    # every two-party session with depth-1 continuations, two labels and at
    # most two summands per choice: no M (and hence none in SCBS or BS)
    leaves = [Nil()]
    procs_p = all_binary_processes("q", ["l1", "l2"], leaves)
    procs_q = all_binary_processes("p", ["l1", "l2"], leaves)
    count = 0
    for pp, qq in itertools.product(procs_p, procs_q):
        m = Session((("p", pp), ("q", qq)))
        assert detect_m(m) is None
        count += 1
    assert count == len(procs_p) * len(procs_q)


# fixed per shape, so every run sweeps the same sessions
SWEEP_SEEDS = {"dmp": 9101, "smp": 9102, "mp": 9103}


@pytest.mark.parametrize("shape,samples", [("dmp", 4000), ("smp", 3000), ("mp", 3000)])
def test_sweep_random_directed_shapes_no_m(shape, samples):
    rng = random.Random(SWEEP_SEEDS[shape])
    sessions = (
        gen_session(rng, ["p", "q", "r"], ["l1", "l2"], 2, shape) for _ in range(samples)
    )
    _sweep_m_absent(sessions)


def test_sweep_random_binary_mixed_no_m():
    rng = random.Random(2024)
    sessions = (gen_session(rng, ["p", "q"], ["l1", "l2"], 2, "mcmp") for _ in range(3000))
    _sweep_m_absent(sessions)


def test_sweep_random_scmp_no_star():
    rng = random.Random(31337)
    for _ in range(3000):
        m = gen_session(rng, ["p", "q", "r"], ["l1", "l2"], 2, "scmp", max_summands=2)
        assert detect_star(m) is None


def test_sweep_lcmv_no_m():
    # linear programs: one choice per endpoint, random shapes
    rng = random.Random(404)
    labels = ["l1", "l2"]
    for _ in range(2000):
        def branches(pol_bias):
            out = []
            for _ in range(rng.randint(1, 2)):
                label = rng.choice(labels)
                if rng.random() < pol_bias:
                    out.append(f"{label}!tt.0")
                else:
                    out.append(f"{label}?z.0")
            return " + ".join(out)

        text = f"(new x y)(lin x ({branches(0.7)}) | lin y ({branches(0.3)}))"
        program = lcmv.parse_cmv(text)
        assert detect_m(program) is None


# ---------------------------------------------------------------------------
# electoral systems


def test_election_is_electoral():
    m, _ = corpus.load("election5")
    ok, _ = is_electoral(m, "station", "elect")
    assert ok


def test_election_with_nulled_role_is_not_electoral():
    m, _ = corpus.load("election5")
    broken = Session(tuple((n, Nil() if n == "a" else p) for n, p in m.parts))
    ok, witness = is_electoral(broken, "station", "elect")
    assert not ok
    assert witness is not None


def test_nil_session_not_electoral():
    ok, witness = is_electoral(parse_session("role p = 0"), "station", "elect")
    assert not ok and witness["announcers"] == []


def test_electoral_rejects_divergence():
    m = parse_session("role p = rec X.(q!l(tt).X) role q = rec Y.(p?l(x).Y)")
    with pytest.raises(syntax.McmpError):
        is_electoral(m, "station", "elect")


def _electoral_by_paths(m, station, label):
    """The reference for is_electoral: enumerate every maximal path, trying
    a state's last successor first, and report the first one that does not
    announce exactly one leader."""
    graph = semantics.explore(m)

    def announcers(i):
        return frozenset(
            b.participant
            for b in semantics.barbs(graph.states[i])
            if b.kind == "out" and b.peer == station and b.label == label
        )

    stack = [(graph.root, [], announcers(graph.root))]
    while stack:
        i, path, seen = stack.pop()
        succs = graph.successors(i)
        if not succs:
            if len(seen) != 1:
                return False, {"path": path, "announcers": sorted(seen)}
            continue
        for step, j in succs:
            stack.append((j, path + [step.describe()], seen | announcers(j)))
    return True, None


def _announcements(m):
    """Every (peer, label) some reachable state outputs on."""
    graph = semantics.explore(m)
    return sorted({(b.peer, b.label) for s in graph.states for b in semantics.barbs(s) if b.kind == "out"})


def _agrees_with_reference(m, station, label):
    if not semantics.is_convergent(semantics.explore(m)):
        with pytest.raises(syntax.McmpError):
            is_electoral(m, station, label)
        return
    assert is_electoral(m, station, label) == _electoral_by_paths(m, station, label), (
        syntax.render_session(m),
        station,
        label,
    )


def test_electoral_matches_path_enumeration_on_corpus():
    for name in sorted(corpus.SESSIONS + corpus.UNTYPED):
        m, _ = corpus.load(name)
        variants = [m] + [Session(tuple((n, Nil() if n == r else p) for n, p in m.parts)) for r, _ in m.parts]
        for v in variants:
            for station, label in [("station", "elect")] + _announcements(v):
                _agrees_with_reference(v, station, label)


def test_electoral_matches_path_enumeration_on_random_sessions():
    rng = random.Random(8128)
    names, labels = ["p", "q", "r"], ["l1", "l2"]
    for _ in range(300):
        m = gen_session(rng, names, labels, 3, "mcmp")
        _agrees_with_reference(m, rng.choice(names), rng.choice(labels))


def test_electoral_has_no_path_budget():
    # four independent 3-message chains; the first chain's initiator then
    # announces to the station w: 320 states, over a million maximal paths
    roles = []
    for i in range(4):
        tail = ".w!elect(tt).0" if i == 0 else ".0"
        roles.append(f"role a{i} = b{i}!m1(tt).b{i}?m2(x).b{i}!m3(tt){tail}")
        roles.append(f"role b{i} = a{i}?m1(x).a{i}!m2(tt).a{i}?m3(y).0")
    roles.append("role w = a0?elect(x).0")
    m = parse_session(" ".join(roles))
    assert len(semantics.explore(m).states) == 320
    count, _ = semantics.maximal_executions(m)
    assert count > 100_000
    assert is_electoral(m, "w", "elect") == (True, None)


def test_star_witness_matches_recomputation():
    m, _ = corpus.load("star_msmp")
    w = detect_star(m)
    steps = {s.describe(): s for s in semantics.enabled_steps(m)}
    for desc, caps in zip(w.steps, w.consumed):
        assert steps[desc].consumed == frozenset(caps)


# ---------------------------------------------------------------------------
# successors: the detectors never canonicalise a session, and decide as the
# tuple sets of every successor's canonical form did


def _counting_canon(monkeypatch):
    # every module's name for canon_session counts its calls
    calls, canon_session = [], syntax.canon_session

    def counted(m):
        calls.append(m)
        return canon_session(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mcmp" and hasattr(module, "canon_session"):
            monkeypatch.setattr(module, "canon_session", counted)
    return calls


STUCK = [
    "role p = 0",
    "role p = ok",
    "role p = q!a(tt).0\nrole q = r?b(x).0\nrole r = 0",
    "role p = q!a(tt).0 + r!b(tt).0\nrole q = p!c(tt).0\nrole r = p!d(tt).ok",
    "role p = rec X. q!a(tt).X\nrole q = rec Y. p!b(tt).Y",
]


@pytest.mark.parametrize("text", STUCK)
def test_no_step_no_canonicalisation(monkeypatch, text):
    m = parse_session(text)
    assert semantics.enabled_steps(m) == []
    calls = _counting_canon(monkeypatch)
    assert detect_m(m) is None and detect_star(m) is None
    assert calls == []


def test_detectors_never_canonicalise_a_session(monkeypatch):
    sessions = {name: corpus.load(name)[0] for name in corpus.SESSIONS + corpus.UNTYPED}
    calls = _counting_canon(monkeypatch)
    m = sessions["m_scmp"]
    # the counter sees the calls it should
    assert syntax.struct_congruent(m, m) and len(calls) == 2
    calls.clear()
    assert detect_m(m) is not None
    for m in sessions.values():
        detect_m(m)
        detect_star(m)
    assert calls == []


def _reference_alternatives(term):
    # every successor built and canonicalised in full
    if isinstance(term, Session):
        return [(step.describe(), step.consumed, syntax.canon_session(semantics.apply_step(term, step)))
                for step in semantics.enabled_steps(term)]
    return [(step.describe(), step.consumed, lcmv.cmv_canon(succ)) for step, succ in lcmv.cmv_enabled(term)]


def _reference_m(term):
    # successors told apart as a set of canonical-form tuples
    alts = sorted(_reference_alternatives(term))
    n = len(alts)
    for b in range(n):
        for a in range(n):
            for c in range(a + 1, n):
                if b in (a, c):
                    continue
                da, db, dc = alts[a], alts[b], alts[c]
                if len({da[2], db[2], dc[2]}) == 3 and da[1] & db[1] and db[1] & dc[1] and not da[1] & dc[1]:
                    return patterns.PatternWitness(
                        "m",
                        (da[0], db[0], dc[0]),
                        tuple(tuple(sorted(d[1])) for d in (da, db, dc)),
                        ((0, 1), (1, 2)),
                    )
    return None


def _reference_star(term):
    alts = sorted(_reference_alternatives(term))
    for combo in itertools.combinations(alts, 5):
        if len({g[2] for g in combo}) != 5:
            continue
        for perm in patterns._cycle_orders():
            ordered = [combo[k] for k in perm]
            if all(((j - i) in (1, 4)) == bool(ordered[i][1] & ordered[j][1])
                   for i in range(5) for j in range(i + 1, 5)):
                return patterns.PatternWitness(
                    "star",
                    tuple(g[0] for g in ordered),
                    tuple(tuple(sorted(g[1])) for g in ordered),
                    tuple((i, (i + 1) % 5) for i in range(5)),
                )
    return None


def _agrees_with_tuple_sets(term):
    assert detect_m(term) == _reference_m(term)
    assert detect_star(term) == _reference_star(term)


def test_detectors_match_tuple_set_reference_on_fixtures():
    found = 0
    for name in corpus.SESSIONS + corpus.UNTYPED:
        m, _ = corpus.load(name)
        _agrees_with_tuple_sets(m)
        found += detect_m(m) is not None
    for name in corpus.CMV:
        p = lcmv.parse_cmv(corpus.text(name))
        _agrees_with_tuple_sets(p)
        found += detect_m(p) is not None
    assert found >= 2


def _small_session(rng, names, labels=("l1", "l2")):
    # up to four sends, most with a matching receive; the continuations are
    # often nil, so different steps often reach the same state
    branches = {p: [] for p in names}

    def cont(p):
        return rng.choice([Nil(), Nil(), syntax.Success(),
                           gen_process(rng, [q for q in names if q != p], list(labels), 1, "mcmp")])

    for _ in range(rng.randint(0, 4)):
        p, q = rng.sample(names, 2)
        label = rng.choice(labels)
        branches[p].append(syntax.Branch(syntax.Prefix(q, "!", label, payload=syntax.TT), cont(p)))
        if rng.random() < 0.8:
            branches[q].append(syntax.Branch(syntax.Prefix(p, "?", label, var="x"), cont(q)))
    return Session(tuple((p, syntax.Choice(tuple(bs)) if bs else Nil()) for p, bs in branches.items()))


def test_detectors_match_tuple_set_reference_on_3_party_sessions():
    # 400 seeded sessions for each count of enabled steps from 0 to 4
    rng = random.Random(2813)
    per_steps = dict.fromkeys(range(5), 0)
    equal_successors = 0
    while min(per_steps.values()) < 400:
        m = _small_session(rng, ["p", "q", "r"])
        steps = len(semantics.enabled_steps(m))
        if per_steps.get(steps, 400) >= 400:
            continue
        per_steps[steps] += 1
        _agrees_with_tuple_sets(m)
        keys = [key for _, _, key in _reference_alternatives(m)]
        equal_successors += len(set(keys)) < len(keys)
    assert equal_successors > 50


def test_detectors_match_tuple_set_reference_on_4_party_sessions():
    # with communications alone M needs four parties: its outer steps are
    # distributable, two participants each
    rng = random.Random(2814)
    witnesses = 0
    for _ in range(1000):
        m = _small_session(rng, ["p", "q", "r", "s"])
        _agrees_with_tuple_sets(m)
        witnesses += detect_m(m) is not None
    assert witnesses > 50
