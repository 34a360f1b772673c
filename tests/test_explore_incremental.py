"""The explorers key each state incrementally: a successor's key is its
parent's with the one or two changed participants re-canonicalised.  They
also enumerate the steps of each pair of terms met in several states once
per exploration.  These tests hold them to references that enumerate and
canonicalise every successor in full, as the explorers first did."""

import gc
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from mcmp import lts, ltypes, semantics, syntax
from mcmp.ltypes import End, LocalContext, TBranch, TChoice, TRec, TVar
from mcmp.syntax import FF, TT, Branch, Choice, Cond, Nil, Prefix, ProcVar, Rec, Session, Success, Var

from genutil import gen_type

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.mcmp"))


def _fixture(path):
    return syntax.parse_source(path.read_text())


# ---------------------------------------------------------------------------
# references: full canonicalisation of every successor


def reference_explore(ms, max_states=semantics.DEFAULT_MAX_STATES, max_depth=semantics.DEFAULT_MAX_DEPTH):
    index, states, edges = {}, [], []
    truncated = False

    def intern(s):
        nonlocal truncated
        key = syntax.canon_session(s)
        if key in index:
            return index[key]
        if len(states) >= max_states:
            truncated = True
            return None
        index[key] = len(states)
        states.append(semantics.resolve(s))
        return index[key]

    roots = [intern(m) for m in ms]
    frontier = list(dict.fromkeys(roots))
    expanded = set(frontier)
    depth = 0
    while frontier:
        if depth >= max_depth:
            # the bound cuts the graph only where a state has a successor
            truncated = any(semantics.enabled_steps(states[i]) for i in frontier)
            break
        nxt = []
        for i in frontier:
            for step in semantics.enabled_steps(states[i]):
                j = intern(semantics.apply_step(states[i], step))
                if j is None:
                    continue
                edges.append((i, step, j))
                if j not in expanded:
                    expanded.add(j)
                    nxt.append(j)
        frontier = nxt
        depth += 1
    return states, edges, roots, truncated


def reference_context_steps(d):
    """The synchronisations of d from each participant's own transitions:
    senders in entry order, then by the sender's branch, then by the
    receiver's."""
    trans = {p: ltypes.type_transitions(p, t) for p, t in d.entries}
    out = []
    for p, _ in d.entries:
        for act, cont in trans[p]:
            q = act.peer
            if act.kind != "out" or q == p or q not in trans:
                continue
            for a, q_cont in trans[q]:
                if a.kind == "in" and a.peer == p and a.label == act.label and a.payload == act.payload:
                    sync = ltypes.TypeAction("ctx", p, q, act.label, act.payload)
                    out.append((sync, d.with_entries({p: cont, q: q_cont})))
    return out


def reference_contexts(delta):
    index, contexts, edges = {}, [], []

    def visit(d):
        key = ltypes.canon_context(d)
        if key not in index:
            index[key] = len(contexts)
            contexts.append(d)
        return index[key]

    root = visit(delta)
    todo = [root]
    seen = set()
    while todo:
        i = todo.pop(0)
        before = len(contexts)
        for act, succ in reference_context_steps(contexts[i]):
            j = visit(succ)
            if (i, act, j) not in seen:
                seen.add((i, act, j))
                edges.append((i, act, j))
            if j >= before:
                todo.append(j)
                before = len(contexts)
    return contexts, edges, root


def _paths(edges, root):
    paths = {root: []}
    for s, act, d in edges:
        if d not in paths:
            paths[d] = paths[s] + [act]
    return paths


def _unsafe_output(d):
    """The first output in d whose receiver listens to the sender but cannot
    take it, or None."""
    trans = {p: ltypes.type_transitions(p, t) for p, t in d.entries}
    enabled = {(a.subject, a.peer, a.label, a.payload) for a, _ in reference_context_steps(d)}
    for p, _ in d.entries:
        for act, _ in trans[p]:
            q = act.peer
            if act.kind != "out" or q == p or q not in trans:
                continue
            q_listens = any(a.kind == "in" and a.peer == p for a, _ in trans[q])
            if q_listens and (p, q, act.label, act.payload) not in enabled:
                return act
    return None


def _stuck(d):
    """The participants of d not at end when d has no step, else []."""
    if reference_context_steps(d):
        return []
    return [p for p, t in d.entries if not isinstance(ltypes.head(t), ltypes.End)]


def reference_is_safe(delta):
    contexts, edges, root = reference_contexts(delta)
    paths = _paths(edges, root)
    for i in sorted(paths):
        act = _unsafe_output(contexts[i])
        if act is not None:
            return False, {"path": [syntax._fields(a) for a in paths[i]], "offending": syntax._fields(act)}
    return True, None


def reference_is_deadlock_free(delta):
    contexts, edges, root = reference_contexts(delta)
    paths = _paths(edges, root)
    for i in sorted(paths):
        bad = _stuck(contexts[i])
        if bad:
            return False, {"path": [syntax._fields(a) for a in paths[i]], "stuck": bad}
    return True, None


def _depths(edges, root):
    """The fewest steps from root to each context."""
    depth, level, frontier = {root: 0}, 0, {root}
    while frontier:
        level += 1
        frontier = {d for s, _, d in edges if s in frontier and d not in depth}
        depth.update(dict.fromkeys(frontier, level))
    return depth


def _replay(delta, path):
    """The context that the actions of path lead to from delta."""
    for act in path:
        delta = next(succ for a, succ in reference_context_steps(delta) if syntax._fields(a) == act)
    return delta


# ---------------------------------------------------------------------------
# inputs


def _dual_pair(rng, p, q, depth, var):
    """Processes for p and q that mirror each other: every output of one is
    an input of the other.  Choices mix both directions; leaves are nil,
    success or a jump back to the recursion variable var (when given)."""
    if depth == 0 or rng.random() < 0.2:
        if var is not None and depth < 3 and rng.random() < 0.5:
            return ProcVar(var[0]), ProcVar(var[1])
        return (Success(), Nil()) if rng.random() < 0.5 else (Nil(), Nil())
    p_branches, q_branches = [], []
    for label in rng.sample(["l1", "l2", "l3"], rng.randint(1, 2)):
        p_cont, q_cont = _dual_pair(rng, p, q, depth - 1, var)
        if rng.random() < 0.3:
            q_cont = Cond(Var("y"), q_cont, Success())
        if rng.random() < 0.5:
            p_branches.append(Branch(Prefix(q, "!", label, payload=rng.choice([TT, FF])), p_cont))
            q_branches.append(Branch(Prefix(p, "?", label, var="y"), q_cont))
        else:
            q_branches.append(Branch(Prefix(p, "!", label, payload=rng.choice([TT, FF])), q_cont))
            p_branches.append(Branch(Prefix(q, "?", label, var="y"), p_cont))
    return Choice(tuple(p_branches)), Choice(tuple(q_branches))


def _generated_sessions():
    """Independent communicating pairs, some recursive, some with a stray
    participant that nobody answers."""
    rng = random.Random(515)
    out = []
    for _ in range(60):
        parts = []
        for k in range(rng.randint(1, 3)):
            p, q = f"p{k}", f"q{k}"
            var = ("X", "Y") if rng.random() < 0.5 else None
            pp, qq = _dual_pair(rng, p, q, 4, var)
            if var is not None and isinstance(pp, Choice):
                pp, qq = Rec("X", pp), Rec("Y", qq)
            parts += [(p, pp), (q, qq)]
        if rng.random() < 0.3:
            parts.append(("z", Choice((Branch(Prefix("p0", "!", "l1", payload=TT), Success()),))))
        out.append(Session(tuple(parts)))
    return out


def _dual_type(rng, depth, var):
    if depth == 0 or rng.random() < 0.2:
        if var and depth < 3 and rng.random() < 0.5:
            return TVar("t"), TVar("t")
        return End(), End()
    p_branches, q_branches = [], []
    for label in rng.sample(["l1", "l2", "l3"], rng.randint(1, 2)):
        p_cont, q_cont = _dual_type(rng, depth - 1, var)
        payload = rng.choice(["nat", "bool"])
        pol = rng.choice("!?")
        # now and then the partner expects another payload type: unsafe
        q_payload = payload if rng.random() < 0.9 else ("nat" if payload == "bool" else "bool")
        p_branches.append(TBranch("q", pol, label, payload, p_cont))
        q_branches.append(TBranch("p", "?" if pol == "!" else "!", label, q_payload, q_cont))
    return TChoice(tuple(p_branches)), TChoice(tuple(q_branches))


def _generated_contexts():
    """Contexts of independent mirrored pairs with renamed participants,
    some recursive and some with mismatched payloads or stray entries."""
    rng = random.Random(616)
    out = []
    for _ in range(60):
        entries = []
        for k in range(rng.randint(1, 3)):
            var = rng.random() < 0.5
            tp, tq = _dual_type(rng, 4, var)
            if var:
                tp, tq = TRec("t", tp), TRec("t", tq)
                if not (ltypes.guarded(tp) and ltypes.guarded(tq)):
                    continue
            rename = {"p": f"p{k}", "q": f"q{k}"}
            entries += [(f"p{k}", _retarget(tp, rename)), (f"q{k}", _retarget(tq, rename))]
        if rng.random() < 0.3:
            entries.append(("z", gen_type(rng, ["p0"], ["l1", "l2"], 2)))
        if entries:
            out.append(LocalContext(tuple(entries)))
    return out


def _retarget(t, rename):
    match t:
        case TRec(x, body):
            return TRec(x, _retarget(body, rename))
        case TChoice(branches):
            return TChoice(tuple(TBranch(rename.get(b.target, b.target), b.polarity, b.label, b.payload,
                                         _retarget(b.cont, rename)) for b in branches))
    return t


def _fixture_contexts():
    return [(path.stem, ctx) for path in FIXTURES for _, ctx in [_fixture(path)] if ctx is not None]


# ---------------------------------------------------------------------------
# sessions


def _assert_same_graph(ms, **bounds):
    g = semantics.explore_many(ms, **bounds)
    states, edges, roots, truncated = reference_explore(ms, **bounds)
    assert g.states == states
    assert g.edges == edges
    assert g.roots == roots
    assert bool(g.truncated) == truncated
    # congruence numbers the distinct keys: a bijection between the two
    keys = [syntax.canon_session(s) for s in g.states]
    pairs = set(zip(g.congruence, keys))
    assert len(g.congruence) == len(keys)
    assert len(pairs) == len(set(g.congruence)) == len(set(keys))
    for i in range(len(g.states)):
        assert g.successors(i) == [(step, d) for s, step, d in g.edges if s == i]


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_explore_matches_reference_on_fixtures(path):
    m, _ = _fixture(path)
    _assert_same_graph([m])
    _assert_same_graph([m], max_states=7)
    _assert_same_graph([m], max_depth=2)


def _captures(proc):
    """Whether proc is a recursion whose unfolding would capture: an input
    in its body binds a name free in proc over an occurrence of its
    variable.  A generated conditional may test a y that no input binds."""
    if not isinstance(proc, Rec):
        return False
    free, todo = syntax.free_names(proc), [(proc.body, frozenset())]
    while todo:
        p, bound = todo.pop()
        if p == ProcVar(proc.var) and bound & free:
            return True
        if isinstance(p, Choice):
            todo += [(b.cont, bound | {b.prefix.var} - {None}) for b in p.branches]
        elif isinstance(p, Cond):
            todo += [(p.then, bound), (p.els, bound)]
    return False


def _assert_same_graph_or_refused(ms, **bounds):
    """_assert_same_graph, or, where a root's top-level recursion would
    capture y, the reference's and the explorer's refusal; True then."""
    if not any(_captures(p) for m in ms for _, p in m.parts):
        _assert_same_graph(ms, **bounds)
        return False
    for explore in (reference_explore, semantics.explore_many):
        with pytest.raises(syntax.McmpError, match="substituting for [XY] under the binder y would capture"):
            explore(ms, **bounds)
    return True


def test_explore_matches_reference_on_generated():
    sessions = _generated_sessions()
    refused = [_assert_same_graph_or_refused([m], max_states=400) for m in sessions]
    assert 0 < sum(refused) < len(sessions) / 4
    # several roots at once, as the encoding harness explores them
    for a, b, c in zip(sessions[0::3], sessions[1::3], sessions[2::3]):
        _assert_same_graph_or_refused([a, b, c], max_states=400)
        _assert_same_graph_or_refused([a, b, c], max_depth=3)


def test_explore_matches_reference_with_conditionals_and_open_payloads():
    m = syntax.parse_session(
        "role p = if tt then q!a(x).0 else q!b(ff).ok\n"
        "role q = p?a(y).rec X.(r!c(y).X + r!d(y).0) + p?b(y).if y then 0 else ok\n"
        "role r = rec Y.(q?c(z).Y + q?d(z).ok)"
    )
    _assert_same_graph([m])


# ---------------------------------------------------------------------------
# contexts


def _assert_same_contexts(delta):
    g = ltypes.explore_contexts(delta)
    contexts, edges, root = reference_contexts(delta)
    assert ltypes.context_steps(delta) == reference_context_steps(delta)
    assert g.contexts == contexts
    assert g.edges == edges
    assert g.root == root
    for i in range(len(g.contexts)):
        assert g.successors(i) == [(a, d) for s, a, d in g.edges if s == i]
    assert ltypes.is_safe(delta) == reference_is_safe(delta)
    assert ltypes.is_deadlock_free(delta) == reference_is_deadlock_free(delta)
    # a witness path replays to a violating context, and none is nearer
    depth = _depths(edges, root)
    for check, violates in ((ltypes.is_safe, _unsafe_output), (ltypes.is_deadlock_free, _stuck)):
        ok, witness = check(delta)
        nearest = min((depth[i] for i, d in enumerate(contexts) if violates(d)), default=None)
        assert ok == (nearest is None)
        if not ok:
            assert violates(_replay(delta, witness["path"]))
            assert len(witness["path"]) == nearest


@pytest.mark.parametrize("name,delta", _fixture_contexts(), ids=lambda v: v if isinstance(v, str) else "")
def test_explore_contexts_matches_reference_on_fixtures(name, delta):
    _assert_same_contexts(delta)


def test_explore_contexts_matches_reference_on_generated():
    for delta in _generated_contexts():
        _assert_same_contexts(delta)


def test_verdicts_and_witnesses_on_failing_fixtures():
    contexts = dict(_fixture_contexts())
    unsafe = [name for name, delta in contexts.items() if not reference_is_safe(delta)[0]]
    stuck = [name for name, delta in contexts.items() if not reference_is_deadlock_free(delta)[0]]
    assert "m_scmp" in unsafe and "election5" in stuck
    for name in unsafe:
        ok, witness = ltypes.is_safe(contexts[name])
        assert not ok and witness == reference_is_safe(contexts[name])[1]
    for name in stuck:
        ok, witness = ltypes.is_deadlock_free(contexts[name])
        assert not ok and witness == reference_is_deadlock_free(contexts[name])[1]


# ---------------------------------------------------------------------------
# the pair-step cache


def _count_hits(monkeypatch):
    """The cache lookups of explorations that find a stored entry."""
    hits = []
    memo = lts.memo

    def counting(cache, key, compute, *terms):
        if cache is not None and cache.get(key):
            hits.append(key)
        return memo(cache, key, compute, *terms)

    monkeypatch.setattr(lts, "memo", counting)
    return hits


def _pair_family(seed):
    """3 or 4 independent mixed-choice pairs: the terms of each pair recur
    in every state the other pairs reach."""
    rng = random.Random(seed)
    parts = []
    for k in range(rng.randint(3, 4)):
        pp, qq = _dual_pair(rng, f"p{k}", f"q{k}", 2, None)
        parts += [(f"p{k}", pp), (f"q{k}", qq)]
    return Session(tuple(parts))


def _context_pair_family(seed):
    rng = random.Random(seed)
    entries = []
    for k in range(rng.randint(3, 4)):
        tp, tq = _dual_type(rng, 2, False)
        entries += [(f"p{k}", _retarget(tp, {"q": f"q{k}"})), (f"q{k}", _retarget(tq, {"p": f"p{k}"}))]
    return LocalContext(tuple(entries))


def test_cached_explorers_match_references_on_pair_families(monkeypatch):
    hits = _count_hits(monkeypatch)
    for seed in range(12):
        _assert_same_graph([_pair_family(seed)])
    assert len(hits) > 1000
    hits.clear()
    for seed in range(12):
        _assert_same_contexts(_context_pair_family(seed))
    assert len(hits) > 1000


def _chain(sender, receiver, labels):
    """Processes for a chain of messages from sender to receiver."""
    p, q = Success(), Nil()
    for label in reversed(labels):
        p = Choice((Branch(Prefix(receiver, "!", label, payload=TT), p),))
        q = Choice((Branch(Prefix(sender, "?", label, var="y"), q),))
    return p, q


def _type_chain(labels):
    p, q = End(), End()
    for label in reversed(labels):
        p = TChoice((TBranch("t", "!", label, "bool", p),))
        q = TChoice((TBranch("s", "?", label, "bool", q),))
    return p, q


def test_interleaved_peers_keep_branch_order():
    # p's choice interleaves its peers; a chain between s and t makes the
    # pairs of p recur in later states
    s_proc, t_proc = _chain("s", "t", ["m1", "m2", "m3"])
    m = syntax.parse_session(
        "role p = q!a(tt).0 + r!b(tt).0 + q!c(tt).0\n"
        "role q = p?c(x).0 + p?a(x).0\n"
        "role r = p?b(x).0"
    )
    m = Session(m.parts + (("s", s_proc), ("t", t_proc)))
    _assert_same_graph([m])
    steps = [step for step, _ in semantics.explore(m).successors(0) if step.sender == "p"]
    assert [(s.receiver, s.label, s.sender_branch, s.receiver_branch) for s in steps] == [
        ("q", "a", 0, 1), ("q", "c", 2, 0), ("r", "b", 1, 0)]

    s_type, t_type = _type_chain(["m1", "m2", "m3"])
    delta = LocalContext((
        ("p", syntax.parse_ltype("q!a(bool).end + r!b(bool).end + q!c(bool).end")),
        ("q", syntax.parse_ltype("p?c(bool).end + p?a(bool).end")),
        ("r", syntax.parse_ltype("p?b(bool).end")),
        ("s", s_type),
        ("t", t_type),
    ))
    _assert_same_contexts(delta)
    g = ltypes.explore_contexts(delta)
    orders = {tuple(a.label for a, _ in g.successors(i) if a.subject == "p") for i in range(len(g.contexts))}
    assert orders == {("a", "b", "c"), ()}


def test_participants_sharing_terms():
    # p1 and p2 hold one term object, and so do c1 and c2; the chain between
    # s and t makes each pair recur
    s_proc, t_proc = _chain("s", "t", ["m1", "m2", "m3"])
    sender = Choice((Branch(Prefix("q", "!", "a", payload=TT), Success()),))
    receiver = syntax.parse_process("p1?a(x).0 + p2?a(x).0")
    cond = Cond(TT, Nil(), Success())
    m = Session((("p1", sender), ("p2", sender), ("q", receiver), ("c1", cond), ("c2", cond),
                 ("s", s_proc), ("t", t_proc)))
    _assert_same_graph([m])
    # roots sharing part objects, and alpha-equal roots built apart
    other = Session((("p1", sender), ("p2", Nil()), ("q", receiver), ("s", s_proc), ("t", t_proc)))
    _assert_same_graph([m, other, m])
    text = "role p = q!a(tt).r!b(ff).0\nrole q = p?a({0}).if {0} then ok else 0\nrole r = p?b({0}).0\n"
    copies = [syntax.parse_session(text.format(v)) for v in ("x", "y", "z")]
    _assert_same_graph(copies)
    assert semantics.explore_many(copies).roots == [0, 0, 0]

    s_type, t_type = _type_chain(["m1", "m2", "m3"])
    t_send = syntax.parse_ltype("q!a(bool).end")
    delta = LocalContext((("p1", t_send), ("p2", t_send), ("q", syntax.parse_ltype("p1?a(bool).end + p2?a(bool).end")),
                          ("s", s_type), ("t", t_type)))
    _assert_same_contexts(delta)


def test_explorations_are_independent():
    for seed in range(4):
        m = _pair_family(seed)
        first, again = semantics.explore(m), semantics.explore(m)
        copy = semantics.explore(_pair_family(seed))
        for g in (again, copy):
            assert (g.states, g.edges, g.congruence) == (first.states, first.edges, first.congruence)
        delta = _context_pair_family(seed)
        first, again = ltypes.explore_contexts(delta), ltypes.explore_contexts(delta)
        assert (again.states, again.edges) == (first.states, first.edges)


def test_exploration_keeps_no_term_alive():
    # the cache belongs to one exploration: once it returns, the terms it
    # held can go
    def explored():
        m = _pair_family(3)
        delta = _context_pair_family(3)
        semantics.explore(m)
        ltypes.explore_contexts(delta)
        return [weakref.ref(t) for _, t in m.parts + delta.entries if isinstance(t, (Choice, TChoice))]

    refs = explored()
    gc.collect()
    assert refs and all(r() is None for r in refs)


# ---------------------------------------------------------------------------
# a state keeps the terms of the path that found it


def _reference_dot(ms):
    """The DOT text of the reference graph of ms."""
    states, edges, roots, truncated = reference_explore(ms)
    succ = [[(step, d) for s, step, d in edges if s == i] for i in range(len(states))]
    return semantics.StateGraph(work=states, _succ=succ, _parent=[], roots=roots, truncated=truncated).to_dot()


def test_merged_state_keeps_first_paths_terms(tmp_path):
    # after a and after b, p holds alpha-equivalent sums with their summands
    # swapped: one state, which keeps a's sum, found first
    text = ("role p = q!a(tt).(r!x(tt).0 + r!y(ff).0) + q!b(tt).(r!y(ff).0 + r!x(tt).0)\n"
            "role q = p?a(v).0 + p?b(v).0\n"
            "role r = p?x(v).0 + p?y(v).ok\n")
    m = syntax.parse_session(text)
    _assert_same_graph([m])
    g = semantics.explore(m)
    assert len(g.states) == 4 and [d for _, _, d in g.edges[:2]] == [1, 1]
    kept = g.states[1].process_of("p")
    assert syntax.render_process(kept) == "r!x(tt).0 + r!y(ff).0"
    assert [(s.label, s.sender_branch) for s, _ in g.successors(1)] == [("x", 0), ("y", 1)]
    path = tmp_path / "swapped.mcmp"
    path.write_text(text)
    dot = tmp_path / "g.dot"
    from mcmp import cli
    assert cli.main(["detect", str(path), "--pattern", "m", "--dot", str(dot)]) == 1
    assert dot.read_text().rstrip("\n") == _reference_dot([m]) == g.to_dot()
    assert 's1 [label="p<r!x(tt).0 + r!y(ff).0> | r<' in dot.read_text()

    delta = LocalContext((
        ("p", syntax.parse_ltype("q!a(bool).(r!x(bool).end + r!y(nat).end) + q!b(bool).(r!y(nat).end + r!x(bool).end)")),
        ("q", syntax.parse_ltype("p?a(bool).end + p?b(bool).end")),
        ("r", syntax.parse_ltype("p?x(bool).end + p?y(nat).end")),
    ))
    _assert_same_contexts(delta)
    g = ltypes.explore_contexts(delta)
    assert len(g.contexts) == 3
    assert ltypes.render_type(g.contexts[1].type_of("p")) == "r!x(bool).end + r!y(nat).end"
    assert [a.label for a, _ in g.successors(1)] == ["x", "y"]


def test_roots_with_other_participants_merge_nil_and_absent():
    two = syntax.parse_session("role p = q!a(tt).0\nrole q = p?a(v).0")
    # r is nil here and absent in two; q and p come in the other order
    three = syntax.parse_session("role q = p?a(w).0\nrole p = q!a(tt).0\nrole r = 0")
    # a third party that finishes after p and q reaches their final state
    relay = syntax.parse_session("role p = q!a(tt).r!b(ff).0\nrole q = p?a(v).0\nrole r = p?b(v).0")
    ms = [two, three, relay]
    _assert_same_graph(ms)
    g = semantics.explore_many(ms)
    assert g.roots == [0, 0, 1]
    assert [syntax.canon_session(s) for s in g.states].count(syntax.canon_session(Session(()))) == 1
    assert g.states[0] == two and g.states[1] == relay
    # the final state is found from the first root, with its participants
    done = [i for i in range(len(g.states)) if not g.successors(i)]
    assert done == [2] and g.states[2].participants() == ("p", "q")
    assert (1, "p->q:a(tt)") in [(i, s.describe()) for i, s, _ in g.edges]
    _assert_same_graph([relay, three, two])
    assert semantics.explore_many([relay, three, two]).roots == [0, 1, 1]


# ---------------------------------------------------------------------------
# resolve


def test_resolve_returns_recursion_free_sessions_uncached():
    plain = [m for m in _generated_sessions() if not any(isinstance(p, Rec) for _, p in m.parts)]
    assert plain
    for m in plain:
        assert semantics.resolve(m) is m


# ---------------------------------------------------------------------------
# the CLI gives the same bytes whatever the hash seed


REPRO_COMMANDS = {
    "election5": [["safety"], ["df"], ["detect", "--pattern", "m"], ["verify-encoding", "--via", "mcmp-msmp"]],
    "m_mcbs": [["safety"], ["df"], ["detect", "--pattern", "m"], ["verify-encoding", "--via", "mcbs-bs"]],
}


@pytest.mark.parametrize("fixture", sorted(REPRO_COMMANDS))
def test_cli_json_independent_of_hash_seed(fixture):
    path = str(ROOT / "fixtures" / f"{fixture}.mcmp")
    outputs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        for command in REPRO_COMMANDS[fixture]:
            argv = [sys.executable, "-m", "mcmp.cli", "--json", command[0], path, *command[1:]]
            done = subprocess.run(argv, capture_output=True, env=env, timeout=120)
            assert done.returncode in (0, 1), done.stderr.decode()
            outputs.setdefault(tuple(command), []).append((done.returncode, done.stdout))
    for command, (first, second) in outputs.items():
        assert first == second, command
