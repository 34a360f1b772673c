import itertools
import random

import pytest

from mcmp import semantics, syntax
from mcmp.semantics import (
    apply_step,
    barbs,
    distributable,
    distributable_components,
    enabled_steps,
    explore,
    explore_many,
    has_success,
    in_conflict,
    is_convergent,
    maximal_executions,
    may_succeed,
    must_succeed,
    weak_bisimilar,
)
from mcmp.syntax import McmpError, Nil, parse_session, struct_congruent

import corpus
from genutil import gen_session


def _locate(graph, session):
    key = syntax.canon_session(session)
    for i, s in enumerate(graph.states):
        if syntax.canon_session(s) == key:
            return i
    raise KeyError("state not in graph")


def test_two_party_mixed_has_two_steps():
    m, _ = corpus.load("mixed2")
    steps = enabled_steps(m)
    assert len(steps) == 2
    assert {s.label for s in steps} == {"l1", "l2"}


def test_terminated_session_has_no_steps():
    assert enabled_steps(parse_session("role p = 0 role q = 0")) == []


def test_election_root_has_five_steps():
    m, _ = corpus.load("election5")
    steps = enabled_steps(m)
    assert len(steps) == 5
    assert all(s.label == "leader" for s in steps)


def test_apply_step_two_party_results():
    m, _ = corpus.load("mixed2")
    by_label = {s.label: s for s in enabled_steps(m)}
    after1 = apply_step(m, by_label["l1"])
    assert has_success(after1)  # p's l1 continuation is the success marker
    after2 = apply_step(m, by_label["l2"])
    assert has_success(after2)  # q's l2 continuation


def test_apply_step_substitutes_payload():
    m = parse_session("role p = q!l(5).0 role q = p?l(x).(if x then 0 else 0)")
    (step,) = enabled_steps(m)
    after = apply_step(m, step)
    cond = after.process_of("q")
    assert cond.guard == syntax.NatVal(5)


def test_apply_step_exact_two_party_reducts():
    # p <- l1(v1) from q, or q <- l2(v2) from p; the receiver's continuation
    # gets the payload substituted, the sender keeps its continuation
    m = parse_session(
        "role p = q?l1(x).q!got(x).0 + q!l2(7).0 "
        "role q = p!l1(5).ok + p?l2(y).q2!fwd(y).0"
    )
    by = {s.label: s for s in enabled_steps(m)}
    after1 = apply_step(m, by["l1"])
    assert struct_congruent(
        after1, parse_session("role p = q!got(5).0 role q = ok")
    )
    after2 = apply_step(m, by["l2"])
    assert struct_congruent(
        after2, parse_session("role p = 0 role q = q2!fwd(7).0")
    )
    ifm = parse_session("role p = if tt then ok else 0")
    (step,) = enabled_steps(ifm)
    assert struct_congruent(apply_step(ifm, step), parse_session("role p = ok"))


def test_must_succeed_rejects_divergent_subgraph():
    # success only sits behind a prefix that never fires, so the check must
    # walk into the loop and refuse
    m = parse_session(
        "role p = rec X.(q!l(tt).X) role q = rec Y.(p?l(x).Y) role r = s!m(tt).ok"
    )
    g = explore(m)
    assert not has_success(g.states[g.root])
    with pytest.raises(McmpError):
        must_succeed(g, g.root)


def test_must_succeed_ignores_a_cycle_behind_success():
    # after a, p is ok for good while q and r loop: every maximal path has
    # passed a success state before the loop
    m = parse_session(
        "role p = q!a(tt).ok role q = p?a(x).rec X.(r!l(tt).X) role r = rec Y.(q?l(y).Y)"
    )
    g = explore(m)
    assert not is_convergent(g)
    assert must_succeed(g, g.root)


def _relay(n):
    """r0 passes a message along r1, ..., r(n-1), which succeeds: one path
    of n - 1 steps."""
    roles = ["role r0 = r1!m(tt).0"]
    roles += [f"role r{i} = r{i - 1}?m(x).r{i + 1}!m(x).0" for i in range(1, n - 1)]
    roles.append(f"role r{n - 1} = r{n - 2}?m(x).ok")
    return parse_session(" ".join(roles))


def test_walks_on_a_path_deeper_than_the_recursion_limit():
    m = _relay(700)
    count, terminals = maximal_executions(m, max_depth=705)
    assert count == 1
    assert [syntax.canon_session(s) for s in terminals] == [syntax.canon_session(parse_session("role r699 = ok"))]
    g = explore(m, max_depth=705)
    assert len(g.states) == 700 and not g.truncated
    assert must_succeed(g, g.root)


def test_explore_requires_positive_limits():
    with pytest.raises(ValueError):
        explore(parse_session("role p = 0"), max_states=0)


def test_apply_if_steps():
    m = parse_session("role p = if tt then ok else 0")
    (step,) = enabled_steps(m)
    assert step.kind == "if-tt"
    assert has_success(apply_step(m, step))


def test_apply_step_rejects_stale_step():
    m, _ = corpus.load("mixed2")
    s1, s2 = enabled_steps(m)
    after = apply_step(m, s1)
    with pytest.raises(McmpError):
        apply_step(after, s2)
    # the same participants still talk, but not by the summand or the
    # payload the stale step names
    m = parse_session("role p = q!a(tt).q!b(tt).0 + q!c(tt).0 role q = p?a(x).p?b(y).0 + p?c(x).0")
    (_, stale) = enabled_steps(m)
    with pytest.raises(McmpError):
        apply_step(apply_step(m, enabled_steps(m)[0]), stale)
    m = parse_session("role p = q!l(tt).q!l(ff).0 role q = p?l(x).p?l(y).0")
    (stale,) = enabled_steps(m)
    with pytest.raises(McmpError):
        apply_step(apply_step(m, stale), stale)


@pytest.mark.parametrize("name", ["mixed2", "pingpong_rec", "cond_demo", "election5"])
def test_apply_step_accepts_step_of_separately_parsed_copy(name):
    # a step names the participants it consumes, so it is enabled in every
    # equal session, not only in the one it was enumerated on
    m, _ = corpus.load(name)
    copy, _ = corpus.load(name)
    steps = enabled_steps(copy)
    assert steps and steps == enabled_steps(m)
    for step in steps:
        assert apply_step(m, step) == apply_step(copy, step)


def test_explore_single_state():
    g = explore(parse_session("role p = 0"))
    assert len(g.states) == 1 and not g.edges and not g.truncated


def test_explore_m_scmp_root_steps():
    m, _ = corpus.load("m_scmp")
    steps = enabled_steps(m)
    # the three steps named by the pattern plus the lp-communication
    assert len(steps) == 4
    descriptions = {s.describe() for s in steps}
    assert {"a->b:l(tt)", "c->b:l(tt)", "c->d:l(tt)", "a->d:lp(tt)"} <= descriptions


def test_election_explores_completely():
    m, _ = corpus.load("election5")
    g = explore(m, max_states=200)
    assert not g.truncated
    assert is_convergent(g)


def test_truncation_is_flagged():
    m, _ = corpus.load("election5")
    g = explore(m, max_states=3)
    assert g.truncated


def test_success_predicates_on_m_scmp():
    m, _ = corpus.load("m_scmp")
    g = explore(m)
    by = {s.describe(): s for s in enabled_steps(m)}
    after_a = _locate(g, apply_step(m, by["a->b:l(tt)"]))
    after_b = _locate(g, apply_step(m, by["c->b:l(tt)"]))
    after_c = _locate(g, apply_step(m, by["c->d:l(tt)"]))
    assert must_succeed(g, after_a)
    assert not may_succeed(g, after_b)
    assert must_succeed(g, after_c)


def test_success_trivially():
    assert has_success(parse_session("role p = ok"))
    m = parse_session("role p = q!l(tt).ok")
    g = explore(m)
    assert not may_succeed(g, g.root)


def test_must_succeed_implies_may_succeed():
    for name in ("m_scmp", "m_mp", "election5", "mixed2"):
        m, _ = corpus.load(name)
        g = explore(m)
        if not is_convergent(g):
            continue
        for i in range(len(g.states)):
            if must_succeed(g, i):
                assert may_succeed(g, i)


def test_barbs_simple():
    m = parse_session("role p = q!l(5).0")
    (b,) = barbs(m)
    assert (b.kind, b.participant, b.peer, b.label) == ("out", "p", "q", "l")
    m2 = parse_session("role p = q!l1(tt).0 + r?l2(x).0")
    kinds = sorted(b.kind for b in barbs(m2))
    assert kinds == ["in", "out"]


def test_barbs_election_root_counts():
    m, _ = corpus.load("election5")
    bs = barbs(m)
    outs = [b for b in bs if b.kind == "out"]
    ins = [b for b in bs if b.kind == "in"]
    assert len(outs) == 5 and all(b.label == "leader" for b in outs)
    assert len(ins) == 10
    assert sum(b.label == "leader" for b in ins) == 5
    assert sum(b.label == "del" for b in ins) == 5


def test_barbs_see_through_recursion():
    m = parse_session("role p = rec X.(q!l(tt).X)")
    (b,) = barbs(m)
    assert b.kind == "out" and b.label == "l"


def test_conflict_structure_of_m_scmp():
    m, _ = corpus.load("m_scmp")
    by = {s.describe(): s for s in enabled_steps(m)}
    a, b, c = by["a->b:l(tt)"], by["c->b:l(tt)"], by["c->d:l(tt)"]
    assert in_conflict(a, b) and in_conflict(b, c)
    assert distributable(a, c)
    assert not distributable(a, a)


def test_if_steps_of_distinct_participants_distributable():
    m = parse_session("role p = if tt then 0 else 0 role q = if tt then 0 else 0")
    s1, s2 = enabled_steps(m)
    assert distributable(s1, s2)


def test_components():
    m, _ = corpus.load("election5")
    comps = distributable_components(m)
    assert len(comps) == 5
    assert all(len(c.parts) == 1 for c in comps)
    assert len(distributable_components(parse_session("role p = 0"))) == 1
    assert distributable_components(syntax.Session(())) == []


def test_convergence():
    m = parse_session("role p = rec X.(q!l(tt).X) role q = rec Y.(p?l(x).Y)")
    g = explore(m)
    assert not is_convergent(g)
    g2 = explore(parse_session("role p = 0"))
    assert is_convergent(g2)


def test_maximal_executions_election_is_ten():
    m, _ = corpus.load("election5")
    count, terminals = maximal_executions(m)
    assert count == 10
    # each (winner, leftover) pair is reached by two symmetric interleavings
    assert len(terminals) == 5


def test_maximal_executions_trivial():
    count, terminals = maximal_executions(parse_session("role p = 0"))
    assert count == 1 and len(terminals) == 1


def test_maximal_executions_m_mp():
    # three independent binary pairs with two outcomes each: 8 terminal
    # states; ordered interleavings multiply to 3! * 2^3 = 48 paths
    m, _ = corpus.load("m_mp")
    count, terminals = maximal_executions(m)
    assert count == 48
    assert len(terminals) == 8


def test_maximal_executions_rejects_divergence():
    m = parse_session("role p = rec X.(q!l(tt).X) role q = rec Y.(p?l(x).Y)")
    with pytest.raises(McmpError):
        maximal_executions(m)


def test_weak_bisim_reflexive_and_discriminating():
    m, _ = corpus.load("m_scmp")
    g = explore(m)
    by = {s.describe(): s for s in enabled_steps(m)}
    ia = _locate(g, apply_step(m, by["a->b:l(tt)"]))
    ib = _locate(g, apply_step(m, by["c->b:l(tt)"]))
    assert weak_bisimilar(g, ia, ia)
    assert not weak_bisimilar(g, ia, ib)


def test_weak_bisim_if_true_equals_success():
    g = explore_many([parse_session("role p = if tt then ok else 0"), parse_session("role p = ok")])
    assert weak_bisimilar(g, g.roots[0], g.roots[1])


def test_weak_bisim_respects_success():
    rng = random.Random(3)
    for _ in range(40):
        m = gen_session(rng, ["p", "q"], ["l1", "l2"], 2, "mcmp")
        g = explore(m)
        if g.truncated:
            continue
        classes = semantics.weak_bisim_classes(g)
        for i in range(len(g.states)):
            for j in range(i + 1, len(g.states)):
                if classes[i] == classes[j]:
                    assert may_succeed(g, i) == may_succeed(g, j)


def test_weak_bisim_with_barbs_observable():
    m1 = parse_session("role p = q!l1(tt).0")
    m2 = parse_session("role p = q!l2(tt).0")
    g = explore_many([m1, m2])
    assert not weak_bisimilar(g, g.roots[0], g.roots[1], frozenset({"success", "barbs"}))
    assert weak_bisimilar(g, g.roots[0], g.roots[1], frozenset({"success"}))


def test_diamond_property_generated():
    # two independent binary subsessions guarantee distributable step pairs
    rng = random.Random(21)
    checked = 0
    for _ in range(400):
        left = gen_session(rng, ["p", "q"], ["l"], 2, "mcmp")
        right = gen_session(rng, ["r", "s"], ["l"], 2, "mcmp")
        m = syntax.Session(left.parts + right.parts)
        steps = enabled_steps(m)
        for s1, s2 in itertools.combinations(steps, 2):
            if not distributable(s1, s2):
                continue
            one = apply_step(apply_step(m, s1), s2)
            other = apply_step(apply_step(m, s2), s1)
            assert struct_congruent(one, other)
            checked += 1
    assert checked > 50


def test_enabled_steps_stable_under_congruence():
    rng = random.Random(5)
    for _ in range(60):
        m = gen_session(rng, ["p", "q"], ["l1", "l2"], 2, "mcmp")
        perm = syntax.Session(tuple(reversed(m.parts)) + (("zz", Nil()),))
        s1 = sorted(s.sort_key()[:6] for s in enabled_steps(m))
        s2 = sorted(s.sort_key()[:6] for s in enabled_steps(perm))
        assert s1 == s2


def test_apply_step_deterministic_on_congruent_states():
    m, _ = corpus.load("mixed2")
    perm = syntax.Session(tuple(reversed(m.parts)))
    for s1 in enabled_steps(m):
        match = [s2 for s2 in enabled_steps(perm) if s2.sort_key()[:6] == s1.sort_key()[:6]]
        assert len(match) == 1
        assert struct_congruent(apply_step(m, s1), apply_step(perm, match[0]))


def test_explore_deterministic():
    m, _ = corpus.load("election5")
    g1 = explore(m)
    g2 = explore(m)
    assert [syntax.canon_session(s) for s in g1.states] == [syntax.canon_session(s) for s in g2.states]
    assert [(s, st.describe(), d) for s, st, d in g1.edges] == [(s, st.describe(), d) for s, st, d in g2.edges]


def test_dot_and_json_exports():
    m, _ = corpus.load("mixed2")
    g = explore(m)
    dot = g.to_dot()
    assert dot.startswith("digraph") and "->" in dot
    payload = g.to_json()
    assert '"edges"' in payload and '"states"' in payload
