import itertools
import random

import pytest

from mcmp import lcmv, patterns, semantics, syntax
from mcmp.patterns import detect_m, detect_star, is_electoral
from mcmp.syntax import Nil, Session, classify, parse_session

import corpus
from genutil import all_binary_processes, gen_session


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


def test_witness_json():
    m, _ = corpus.load("m_scmp")
    w = detect_m(m)
    data = w.to_json()
    assert '"kind": "m"' in data


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
