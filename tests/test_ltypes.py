import random

import pytest

from mcmp import ltypes
from mcmp.ltypes import (
    End,
    LocalContext,
    TBranch,
    TChoice,
    TRec,
    TVar,
    canon_context,
    context_steps,
    context_subtype,
    explore_contexts,
    ftv,
    guarded,
    head,
    is_deadlock_free,
    is_safe,
    prefix_set,
    pt,
    subtype,
    type_transitions,
    types_equal,
    unfold,
    well_formed,
)
from mcmp.syntax import parse_ltype

import corpus
from genutil import gen_rec_type, gen_type, widen


def T(text):
    return parse_ltype(text)


def ctx(**entries):
    return LocalContext(tuple(entries.items()))


# ---------------------------------------------------------------------------
# well-formedness and auxiliary functions


def test_well_formed_rejects_same_prefix_same_label():
    assert not well_formed(T("q!l(nat).end + q!l(bool).end"))


def test_well_formed_accepts_distinct_polarity():
    assert well_formed(T("q!l(nat).end + q?l(nat).end"))


def test_well_formed_end():
    assert well_formed(End())


def test_pt_and_ftv():
    assert pt(End()) == set()
    assert ftv(TVar("t")) == {"t"}
    assert pt(T("q!l(nat).r?m(bool).end")) == {"q", "r"}
    assert ftv(T("rec t.q!l(nat).t")) == set()


def test_prefix_top_layer_only():
    t = T("q!l1(nat).r!x(bool).end + r?l2(bool).end")
    assert prefix_set(t) == frozenset({("q", "!"), ("r", "?")})
    assert prefix_set(End()) == frozenset()


def test_guardedness():
    assert guarded(TRec("t", TVar("s")))
    assert not guarded(TRec("t", TVar("t")))
    assert not guarded(TRec("t", TRec("s", TVar("t"))))
    assert guarded(T("rec t.q!l(nat).t"))


def test_unfold():
    assert unfold(End()) == End()
    t = T("rec t.q!l(nat).t")
    u = unfold(t)
    assert isinstance(u, TChoice)
    assert u.branches[0].cont == t


def test_unfold_reaches_constructor_quickly():
    rng = random.Random(13)
    for _ in range(200):
        t = gen_rec_type(rng, ["q", "r"], ["l1", "l2"], 3)
        h = head(t)
        assert not isinstance(h, TRec)


# ---------------------------------------------------------------------------
# subtyping


def test_subtype_reflexive_basics():
    assert subtype(End(), End())
    t = T("rec t.q!l(bool).t")
    assert subtype(t, t)


def test_mixed_choice_subtyping_same_participant():
    small = T("p?l1(bool).end + p?l2(bool).end + p!l3(bool).end")
    big = T("p?l1(bool).end + p!l3(bool).end + p!l4(bool).end")
    assert subtype(small, big)
    assert not subtype(big, small)


def test_mixed_choice_subtyping_different_participants():
    small = T("p?l1(bool).end + p?l2(bool).end + q!l3(bool).end")
    big = T("p?l1(bool).end + q!l3(bool).end + q!l4(bool).end")
    assert subtype(small, big)


def test_output_widening_and_input_narrowing():
    assert subtype(T("q!l1(bool).end"), T("q!l1(bool).end + q!l2(bool).end"))
    assert subtype(T("q?l1(bool).end + q?l2(bool).end"), T("q?l1(bool).end"))
    assert not subtype(T("q!l1(bool).end + q!l2(bool).end"), T("q!l1(bool).end"))
    assert not subtype(T("q?l1(bool).end"), T("q?l1(bool).end + q?l2(bool).end"))


def test_payloads_are_invariant():
    assert not subtype(T("q!l(nat).end"), T("q!l(bool).end"))
    assert not subtype(T("q?l(nat).end"), T("q?l(bool).end"))


def test_sset_rule_is_rejected():
    # collapsing a mixed choice pointwise must NOT be derivable
    d3 = ctx(p=T("q!l1(bool).end"), q=T("p?l2(bool).end"))
    d2 = ctx(p=T("q!l1(bool).end + q!l2(bool).end"), q=T("p?l1(bool).end + p?l2(bool).end"))
    assert not context_subtype(d3, d2)
    assert not subtype(T("p?l2(bool).end"), T("p?l1(bool).end + p?l2(bool).end"))


def test_block_prefixes_must_agree():
    # a block present on only one side breaks the invariant split
    assert not subtype(T("q!l1(bool).end"), T("q!l1(bool).end + r!l2(bool).end"))
    assert not subtype(T("q!l1(bool).end + r!l2(bool).end"), T("q!l1(bool).end"))


def test_subtype_under_recursion():
    small = T("rec t.(q!l1(bool).t)")
    big = T("rec t.(q!l1(bool).t + q!l2(bool).end)")
    assert subtype(small, big)
    assert not subtype(big, small)


def test_subtype_rec_vs_unfolding():
    t = T("rec t.q!l(bool).t")
    assert subtype(t, unfold(t))
    assert subtype(unfold(t), t)
    assert types_equal(t, unfold(t))
    assert not types_equal(t, T("rec t.q!lx(bool).t"))


def _tequal(a, b, assumed):
    """Block-exact equality of the infinite unfoldings, the definition
    types_equal had before it became subtyping both ways: its oracle."""
    key = (a, b)
    if key in assumed:
        return True
    assumed.add(key)
    if isinstance(a, TRec):
        return _tequal(unfold(a), b, assumed)
    if isinstance(b, TRec):
        return _tequal(a, unfold(b), assumed)
    if isinstance(a, End) and isinstance(b, End):
        return True
    if isinstance(a, TVar) or isinstance(b, TVar):
        return a == b
    if isinstance(a, TChoice) and isinstance(b, TChoice):
        ka = {(x.target, x.polarity, x.label, x.payload) for x in a.branches}
        kb = {(x.target, x.polarity, x.label, x.payload) for x in b.branches}
        if ka != kb:
            return False
        bb = {(x.target, x.polarity, x.label): x for x in b.branches}
        return all(_tequal(x.cont, bb[(x.target, x.polarity, x.label)].cont, assumed) for x in a.branches)
    return False


def test_types_equal_matches_block_exact_oracle():
    # subtyping is antisymmetric on well-formed types; each random type is
    # put against itself, a widened copy, its unfolding and another type
    rng = random.Random(8080)
    labels = ["l1", "l2", "l3"]
    outcomes = {True: 0, False: 0}
    for _ in range(500):
        t = gen_rec_type(rng, ["q", "r"], labels, 3)
        for other in (t, widen(rng, t, labels), unfold(t), gen_rec_type(rng, ["q", "r"], labels, 3)):
            got = types_equal(t, other)
            assert got == _tequal(t, other, set()) == types_equal(other, t), (t, other)
            outcomes[got] += 1
    assert min(outcomes.values()) > 500


def test_types_equal_rejects_ill_formed_types():
    twice = TChoice((TBranch("q", "!", "l", "bool", End()), TBranch("q", "!", "l", "bool", End())))
    with pytest.raises(ValueError):
        types_equal(twice, End())


def test_subtype_preorder_generated():
    rng = random.Random(99)
    labels = ["l1", "l2", "l3"]
    for _ in range(2000):
        t = gen_rec_type(rng, ["q", "r", "s"], labels, 4)
        assert subtype(t, t)
        t2 = widen(rng, t, labels)
        t3 = widen(rng, t2, labels)
        assert subtype(t, t2)
        assert subtype(t2, t3)
        assert subtype(t, t3)  # transitivity instance


def test_context_subtype_examples():
    d = ctx(p=T("q!l(bool).end"), q=T("p?l(bool).end"))
    assert context_subtype(d, d)
    assert context_subtype(ctx(p=End()), LocalContext(()))
    assert not context_subtype(ctx(p=T("q!l(bool).end")), LocalContext(()))
    assert context_subtype(LocalContext(()), ctx(p=End()))


# ---------------------------------------------------------------------------
# LTS, safety and deadlock-freedom


def test_type_transitions():
    acts = type_transitions("p", T("q!l(nat).end + q?lp(bool).end"))
    assert len(acts) == 2
    assert {a.kind for a, _ in acts} == {"out", "in"}
    assert type_transitions("p", End()) == []
    rec = T("rec t.q!l(bool).t")
    acts2 = type_transitions("p", rec)
    assert len(acts2) == 1
    (act, cont), = acts2
    assert act.kind == "out" and types_equal(cont, rec)


def test_context_steps_matching_and_mismatch():
    d = ctx(p=T("q!l(bool).end"), q=T("p?l(bool).end"))
    steps = context_steps(d)
    assert len(steps) == 1
    _, succ = steps[0]
    assert all(isinstance(t, End) for _, t in succ.entries)
    # payload mismatch disables the synchronisation
    d2 = ctx(p=T("q!l(bool).end"), q=T("p?l(nat).end"))
    assert context_steps(d2) == []


def test_context_fan_out_m_scmp():
    _, delta = corpus.load("m_scmp")
    assert len(context_steps(delta)) == 4


def test_explore_contexts_single_state():
    g = explore_contexts(ctx(p=End()))
    assert len(g.contexts) == 1 and not g.edges


def test_context_graph_json_export():
    d = ctx(p=T("q!l(bool).end"), q=T("p?l(bool).end"))
    g = explore_contexts(d)
    import json

    data = json.loads(g.to_json())
    assert data["root"] == 0 and len(data["contexts"]) == 2 and len(data["edges"]) == 1


def test_explore_contexts_self_loop():
    d = ctx(p=T("rec t.q!l(bool).t"), q=T("rec t.p?l(bool).t"))
    g = explore_contexts(d)
    assert len(g.contexts) == 1
    assert len(g.edges) == 1 and g.edges[0][0] == g.edges[0][2] == g.root


def test_explore_contexts_election_terminals_all_end():
    _, delta = corpus.load("election6")
    g = explore_contexts(delta)
    for i, d in enumerate(g.contexts):
        if not g.successors(i):
            assert all(isinstance(head(t), End) for _, t in d.entries)


def test_safety_unmatched_output_label():
    d = ctx(p=T("q!l1(bool).end + q!l2(bool).end"), q=T("p?l1(bool).end"))
    ok, witness = is_safe(d)
    assert not ok
    assert witness["offending"]["label"] == "l2"


def test_safety_vacuous_without_listener():
    d2 = ctx(p=T("q!l(bool).end"))
    assert is_safe(d2)[0]
    assert not is_deadlock_free(d2)[0]


def test_delta3_df_but_not_safe():
    d3 = ctx(
        p=T("rec t.q!l1(bool).t"),
        q=T("rec t.p?l1(bool).t"),
        r=T("s!l2(bool).end"),
        s=T("r?l2(nat).end"),
    )
    assert not is_safe(d3)[0]
    assert is_deadlock_free(d3)[0]


def test_remark_pair_df_not_preserved_without_safety():
    delta = ctx(p=T("q!l1(bool).end + q!l2(bool).end"), q=T("p?l1(bool).end"))
    smaller = ctx(p=T("q!l2(bool).end"), q=T("p?l1(bool).end"))
    assert context_subtype(smaller, delta)
    assert is_deadlock_free(delta)[0]
    assert not is_deadlock_free(smaller)[0]
    assert not is_safe(delta)[0]  # the safety hypothesis of the lemma fails


@pytest.mark.parametrize("name", corpus.SESSIONS)
def test_frozen_safety_table(name):
    _, delta = corpus.load(name)
    assert is_safe(delta)[0] == (name in corpus.SAFE_DF + corpus.SAFE_NOT_DF)
    assert is_deadlock_free(delta)[0] == (name in corpus.SAFE_DF + corpus.DF_NOT_SAFE)


def test_safety_step_closed():
    for name in ("election6", "m_mp", "mixed2", "cond_demo"):
        _, delta = corpus.load(name)
        assert is_safe(delta)[0]
        g = explore_contexts(delta)
        for d in g.contexts:
            assert is_safe(d)[0]


def _narrow(rng, t, labels):
    # a subtype of t: shrink outputs, grow inputs
    match t:
        case End() | TVar():
            return t
        case TRec(x, body):
            return TRec(x, _narrow(rng, body, labels))
        case TChoice(branches):
            blocks = {}
            for b in branches:
                blocks.setdefault((b.target, b.polarity), []).append(b)
            out = []
            for (target, pol), bs in blocks.items():
                bs = [TBranch(b.target, b.polarity, b.label, b.payload, _narrow(rng, b.cont, labels)) for b in bs]
                if pol == "!":
                    while len(bs) > 1 and rng.random() < 0.4:
                        bs.pop(rng.randrange(len(bs)))
                else:
                    present = {b.label for b in bs}
                    for label in labels:
                        if label not in present and rng.random() < 0.4:
                            bs.append(TBranch(target, "?", label, "bool", End()))
                            present.add(label)
                out.extend(bs)
            return TChoice(tuple(out))
    raise TypeError(t)


def test_lemma_narrowing_preserves_safety_and_df():
    # smaller contexts inherit safety; with safety they inherit df as well
    rng = random.Random(4242)
    labels = ["l1", "l2"]
    tested_safe = tested_df = 0
    base_names = ["mixed2", "m_mp", "cond_demo", "ping", "out2", "smp_pair", "election6"]
    for name in base_names:
        _, delta = corpus.load(name)
        for _ in range(30):
            smaller = LocalContext(tuple((p, _narrow(rng, t, labels)) for p, t in delta.entries))
            if not context_subtype(smaller, delta):
                continue
            if is_safe(delta)[0]:
                assert is_safe(smaller)[0], (name, smaller)
                tested_safe += 1
                if is_deadlock_free(delta)[0]:
                    assert is_deadlock_free(smaller)[0], (name, smaller)
                    tested_df += 1
    assert tested_safe > 50 and tested_df > 40


def test_canon_context_identifies_unfolding_variants():
    a = ctx(p=T("rec t.q!l(bool).t"))
    b = ctx(p=T("rec s.q!l(bool).s"))
    assert canon_context(a) == canon_context(b)


def test_explore_contexts_terminates_on_generated():
    rng = random.Random(8)
    for _ in range(150):
        entries = []
        for p in ("p", "q"):
            peers = ["q" if p == "p" else "p"]
            t = gen_rec_type(rng, peers, ["l1", "l2"], 3)
            entries.append((p, t))
        delta = LocalContext(tuple(entries))
        g = explore_contexts(delta)
        assert len(g.contexts) < 500


# ---------------------------------------------------------------------------
# canonical forms of types (the kernel's walk, see syntax._canon_walk)


def reference_canon_type(t, env=()):
    """The form of t with rec variables numbered by level, recomputed in
    full and recursively, so that no form of a subterm is reused under
    another context."""
    match t:
        case End():
            return ("end",)
        case TVar(name):
            for n, i in reversed(env):
                if n == name:
                    return ("b", i)
            return ("f", name)
        case TRec(x, body):
            return ("rec", reference_canon_type(body, env + ((x, len(env)),)))
        case TChoice(branches):
            return (
                "sum",
                tuple(sorted((b.target, b.polarity, b.label, b.payload, reference_canon_type(b.cont, env))
                             for b in branches)),
            )
    raise TypeError(t)


def rebuild_type(t):
    """A copy of t of fresh nodes, which keep no facts yet."""
    match t:
        case End():
            return End()
        case TVar(name):
            return TVar(name)
        case TRec(x, body):
            return TRec(x, rebuild_type(body))
        case TChoice(branches):
            return TChoice(tuple(TBranch(b.target, b.polarity, b.label, b.payload, rebuild_type(b.cont))
                                 for b in branches))
    raise TypeError(t)


def type_subterms(t):
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        out.append(u)
        if isinstance(u, TRec):
            todo.append(u.body)
        elif isinstance(u, TChoice):
            todo += reversed([b.cont for b in u.branches])
    return out


def random_nested_type(rng, depth, scope=()):
    """A type with nested and shadowing recursions over two variable names,
    and a variable no binder binds (u), so that subterms are open."""
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        return TVar(rng.choice(scope + ("u",))) if rng.random() < 0.5 else End()
    if roll < 0.35:
        x = rng.choice(("t", "s"))
        return TRec(x, random_nested_type(rng, depth - 1, scope + (x,)))
    heads = sorted({(rng.choice("pq"), rng.choice("!?"), rng.choice(("a", "b"))) for _ in range(rng.randint(1, 3))})
    return TChoice(tuple(TBranch(q, pol, label, rng.choice(("nat", "bool")), random_nested_type(rng, depth - 1, scope))
                         for q, pol, label in heads))


def rename_rec(t, old, new):
    """t with every binder old, and the variables it binds, renamed to new
    (new must not occur in t)."""
    match t:
        case TVar(name):
            return TVar(new if name == old else name)
        case TRec(x, body):
            return TRec(new if x == old else x, rename_rec(body, old, new))
        case TChoice(branches):
            return TChoice(tuple(TBranch(b.target, b.polarity, b.label, b.payload, rename_rec(b.cont, old, new))
                                 for b in branches))
    return End()


def type_corpus(source):
    if source == "corpus":
        wholes = []
        for name in corpus.SESSIONS:
            _, delta = corpus.load(name)
            for d in explore_contexts(delta, max_states=200).contexts:
                wholes += [rebuild_type(u) for _, u in d.entries]
        return wholes
    rng = random.Random(17)
    wholes = []
    for _ in range(150):
        t = random_nested_type(rng, 5) if rng.random() < 0.7 else gen_rec_type(rng, ["p", "q"], ["a", "b"], 4)
        wholes += [t, rename_rec(rebuild_type(t), "t", "v")]
    return wholes


@pytest.mark.parametrize("order", ["outside-in", "inside-out"])
@pytest.mark.parametrize("source", ["corpus", "random"])
def test_type_forms_agree_with_level_reference(source, order):
    terms = [u for t in type_corpus(source) for u in type_subterms(t)]
    # outside-in, a subterm is first met under its binders; inside-out, a
    # type under a binder already has the form it got on its own
    for t in terms if order == "outside-in" else reversed(terms):
        ltypes._type_form(t)
    by_form, by_reference = {}, {}
    for i, t in enumerate(terms):
        by_form.setdefault(ltypes._type_form(t), set()).add(i)
        by_reference.setdefault(reference_canon_type(t), set()).add(i)
    assert sorted(map(sorted, by_form.values())) == sorted(map(sorted, by_reference.values()))
    if source == "random":
        # the corpus holds alpha-variants, recursions and open types
        assert len(by_form) < len(set(map(id, terms))) and len(set(map(repr, terms))) > len(by_form)
        assert sum(isinstance(t, TRec) for t in terms) > 50 and sum(bool(ftv(t)) for t in terms) > 100


def test_only_the_type_asked_for_and_types_using_a_binder_keep_no_form():
    t = T("q!x(nat).rec t.(q!b(nat).q!e(nat).t + q!c(nat).q!d(bool).end)")
    form = ltypes._type_form(t)
    rec = t.branches[0].cont
    uses_t, closed_cont = (b.cont for b in rec.body.branches)
    assert t._key is None and rec.body._key is None and uses_t._key is None
    assert form[1][0][4] is rec._key and closed_cont._key is not None
    # unfolding shares every continuation without the variable
    u = unfold(rec)
    assert u.branches[1] is rec.body.branches[1] and u.branches[0].cont.branches[0].cont is rec
    assert ltypes._type_form(u.branches[1].cont) is closed_cont._key


def test_deep_types_need_no_recursion():
    def deep():
        t = TVar("t")
        for i in range(5000):
            t = TChoice((TBranch("q", "!?"[i % 2], f"l{i}", "nat", t),))
        return TRec("t", t)

    assert ftv(deep()) == frozenset() and ftv(deep().body) == {"t"}
    assert len(canon_context(LocalContext((("p", deep()),)))) == 1


def test_deep_types_unfold_and_print_without_recursion():
    t = TVar("t")
    for i in range(5000):
        t = TChoice((TBranch("q", "!?"[i % 2], f"l{i}", "nat", t),))
    rec = TRec("t", t)
    bottom = unfold(rec)
    for _ in range(5000):
        bottom = bottom.branches[0].cont
    assert bottom is rec
    text = ltypes.render_type(rec)
    assert text.startswith("rec t.q?l4999(nat).q!l4998(nat).") and text.endswith("q!l0(nat).t")
    assert ltypes.render_type(unfold(rec)) == text[len("rec t."):-1] + f"({text})"
