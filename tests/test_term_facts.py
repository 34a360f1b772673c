"""The facts a process node keeps about itself (free names, canonical form),
substitution that shares what it does not change, and the memoised encoder.

The canonical forms are checked against a level-based reference kept here,
which numbers a bound name by the depth of its binder from the root of the
term, so that no form of a subterm can be reused under another context."""

import random

import pytest

from mcmp import encode, ltypes, semantics, syntax
from mcmp.syntax import (
    FF,
    TT,
    Branch,
    Choice,
    Cond,
    NatVal,
    Nil,
    Prefix,
    ProcVar,
    Rec,
    Success,
    Var,
    canon_process,
    free_names,
    parse_session,
    substitute_proc,
    substitute_value,
)

import corpus


# ---------------------------------------------------------------------------
# references


def oracle_canon(proc, env=()):
    """Canonical form with binders numbered by level, recomputed in full."""

    def lookup(env, name, kind):
        for n, i in reversed(env):
            if n == (kind, name):
                return ("b", i)
        return ("f", name)

    def cval(v, env):
        if isinstance(v, Var):
            return ("v",) + lookup(env, v.name, "v")
        if isinstance(v, NatVal):
            return ("n", v.value)
        return ("t", v.value)

    def walk(p, env):
        match p:
            case Nil():
                return ("0",)
            case Success():
                return ("ok",)
            case ProcVar(name):
                return ("X",) + lookup(env, name, "X")
            case Rec(x, body):
                return ("rec", walk(body, env + ((("X", x), len(env)),)))
            case Cond(g, t, e):
                return ("if", cval(g, env), walk(t, env), walk(e, env))
            case Choice(branches):
                items = []
                for b in branches:
                    pre = b.prefix
                    if pre.polarity == "!":
                        items.append(("!", pre.target, pre.label, cval(pre.payload, env), walk(b.cont, env)))
                    else:
                        inner = env + ((("v", pre.var), len(env)),)
                        items.append(("?", pre.target, pre.label, walk(b.cont, inner)))
                return ("sum", tuple(sorted(items)))
        raise TypeError(p)

    return walk(proc, env)


def oracle_free_values(proc):
    def walk(p, bound):
        match p:
            case Choice(branches):
                out = set()
                for b in branches:
                    pre = b.prefix
                    if pre.polarity == "!" and isinstance(pre.payload, Var) and pre.payload.name not in bound:
                        out.add(pre.payload.name)
                    out |= walk(b.cont, bound | {pre.var} if pre.polarity == "?" else bound)
                return out
            case Cond(g, t, e):
                out = walk(t, bound) | walk(e, bound)
                if isinstance(g, Var) and g.name not in bound:
                    out.add(g.name)
                return out
            case Rec(_, body):
                return walk(body, bound)
        return set()

    return walk(proc, frozenset())


def oracle_free_procs(proc):
    match proc:
        case ProcVar(name):
            return {name}
        case Rec(x, body):
            return oracle_free_procs(body) - {x}
        case Choice(branches):
            return set().union(*(oracle_free_procs(b.cont) for b in branches))
        case Cond(_, t, e):
            return oracle_free_procs(t) | oracle_free_procs(e)
    return set()


def oracle_substitute(proc, value, var):
    """proc[value/var], rebuilding the whole term, with the same renaming of
    capturing binders as the library."""

    def subst_v(v):
        return value if isinstance(v, Var) and v.name == var else v

    def walk(p):
        match p:
            case Choice(branches):
                new = []
                for b in branches:
                    pre = b.prefix
                    if pre.polarity == "!":
                        new.append(Branch(Prefix(pre.target, "!", pre.label, payload=subst_v(pre.payload)), walk(b.cont)))
                    elif pre.var == var:
                        new.append(b)
                    elif isinstance(value, Var) and pre.var == value.name and var in oracle_free_values(b.cont):
                        free = oracle_free_values(b.cont)
                        n = 0
                        while f"{pre.var}_{n}" in free:
                            n += 1
                        fresh = f"{pre.var}_{n}"
                        renamed = oracle_substitute(b.cont, Var(fresh), pre.var)
                        new.append(Branch(Prefix(pre.target, "?", pre.label, var=fresh), walk(renamed)))
                    else:
                        new.append(Branch(pre, walk(b.cont)))
                return Choice(tuple(new))
            case Cond(g, t, e):
                return Cond(subst_v(g), walk(t), walk(e))
            case Rec(x, body):
                return Rec(x, walk(body))
        return p

    return walk(proc)


def rebuild(p):
    """A structurally equal copy of p that shares no node with it, so it
    carries no computed facts."""
    match p:
        case Choice(branches):
            return Choice(tuple(Branch(b.prefix, rebuild(b.cont)) for b in branches))
        case Cond(g, t, e):
            return Cond(g, rebuild(t), rebuild(e))
        case Rec(x, body):
            return Rec(x, rebuild(body))
        case Nil():
            return Nil()
        case Success():
            return Success()
        case ProcVar(name):
            return ProcVar(name)
    raise TypeError(p)


def subterms(p):
    out, todo = [], [p]
    while todo:
        q = todo.pop()
        out.append(q)
        match q:
            case Choice(branches):
                todo += [b.cont for b in branches]
            case Cond(_, t, e):
                todo += [t, e]
            case Rec(_, body):
                todo.append(body)
    return out


# ---------------------------------------------------------------------------
# corpora


VALUE_NAMES = ("x", "y", "z")
PEERS = ("p", "q")
LABELS = ("a", "b")


def gen_proc(rng, depth, vals=(), procs=(), guarded=False):
    """A random process over few names, so binders shadow one another,
    received names are forwarded and conditionals test them; process
    variables occur only under a prefix."""
    roll = rng.random()
    if depth <= 0 or roll < 0.12:
        if procs and guarded and rng.random() < 0.6:
            return ProcVar(rng.choice(procs + ("W",)))
        return rng.choice((Nil(), Success()))
    if roll < 0.22:
        x = rng.choice(("X", "Y"))
        return Rec(x, gen_proc(rng, depth - 1, vals, procs + (x,), False))
    if roll < 0.34:
        guard = Var(rng.choice(vals + ("u",))) if vals and rng.random() < 0.8 else rng.choice((TT, FF))
        return Cond(guard, gen_proc(rng, depth - 1, vals, procs, True), gen_proc(rng, depth - 1, vals, procs, True))
    branches = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        peer, label = rng.choice(PEERS), rng.choice(LABELS)
        if rng.random() < 0.5:
            payload = Var(rng.choice(vals + ("u",))) if rng.random() < 0.7 else rng.choice((TT, NatVal(1)))
            prefix, inner = Prefix(peer, "!", label, payload=payload), vals
        else:
            var = rng.choice(VALUE_NAMES)
            prefix, inner = Prefix(peer, "?", label, var=var), vals + (var,)
        branches.append(Branch(prefix, gen_proc(rng, depth - 1, inner, procs, True)))
    return Choice(tuple(branches))


def alpha_variant(rng, p):
    """p with some bound names renamed to fresh ones."""
    match p:
        case Choice(branches):
            new = []
            for b in branches:
                pre, cont = b.prefix, alpha_variant(rng, b.cont)
                if pre.polarity == "?" and rng.random() < 0.5:
                    fresh = f"{pre.var}r{rng.randrange(3)}"
                    if fresh not in oracle_free_values(cont):
                        cont = oracle_substitute(cont, Var(fresh), pre.var)
                        pre = Prefix(pre.target, "?", pre.label, var=fresh)
                new.append(Branch(pre, cont))
            return Choice(tuple(new))
        case Cond(g, t, e):
            return Cond(g, alpha_variant(rng, t), alpha_variant(rng, e))
        case Rec(x, body):
            body = alpha_variant(rng, body)
            if rng.random() < 0.5 and f"{x}r" not in oracle_free_procs(body):
                return Rec(f"{x}r", substitute_proc(body, ProcVar(f"{x}r"), x))
            return Rec(x, body)
    return p


def random_terms(seed, count=150, depth=5):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = gen_proc(rng, depth)
        out += [p, alpha_variant(rng, p)]
    return out


def corpus_terms():
    """Every process of every corpus session and of every session it
    reaches, top-level recursions unfolded."""
    out = []
    for name in sorted(corpus.SESSIONS):
        m, _ = corpus.load(name)
        graph = semantics.explore(m, max_states=300)
        out += [proc for s in [m] + graph.states for _, proc in s.parts]
    return out


# ---------------------------------------------------------------------------
# canonical forms


def assert_same_partition(terms):
    """canon_process equates two terms exactly when the reference does."""
    by_key, by_oracle = {}, {}
    for i, t in enumerate(terms):
        by_key.setdefault(canon_process(t), set()).add(i)
        by_oracle.setdefault(oracle_canon(t), set()).add(i)
    assert sorted(map(sorted, by_key.values())) == sorted(map(sorted, by_oracle.values()))


@pytest.mark.parametrize("order", ["outside-in", "inside-out"])
@pytest.mark.parametrize("source", ["corpus", "random"])
def test_canon_agrees_with_level_reference(source, order):
    wholes = corpus_terms() if source == "corpus" else random_terms(seed=11)
    terms = [s for t in wholes for s in subterms(t)]
    # outside-in, a subterm is first met under its binders; inside-out, a
    # term under a binder already has the form it got on its own
    for t in terms if order == "outside-in" else reversed(terms):
        canon_process(t)
    assert_same_partition(terms)
    for t in terms:
        assert canon_process(t) == canon_process(rebuild(t))


def test_random_corpus_has_alpha_variants_and_open_terms():
    terms = random_terms(seed=11)
    subs = [s for t in terms for s in subterms(t)]
    assert sum(p != q and oracle_canon(p) == oracle_canon(q) for p, q in zip(terms[::2], terms[1::2])) > 20
    assert sum(bool(oracle_free_values(s)) for s in subs) > 100
    assert sum(isinstance(s, Rec) for s in subs) > 20 and sum(isinstance(s, Cond) for s in subs) > 20


def test_a_subterm_not_using_enclosing_binders_keeps_its_own_form():
    # the form of a one-summand choice is (polarity, peer, label, [payload,]
    # continuation's form)
    p = syntax.parse_process("q?a(x).q!b(tt).q!c(tt).q!d(tt).0")
    second = p.branches[0].cont.branches[0].cont
    assert canon_process(p)[3][4] is canon_process(second)
    # the continuation two levels down uses z, so its form is made under
    # the binder; its own continuation does not, and keeps one form
    r = syntax.parse_process("q?a(z).q!b(tt).q!e(z).q!c(tt).q!d(tt).0")
    uses_z = r.branches[0].cont.branches[0].cont
    assert canon_process(r)[3][4] != canon_process(uses_z)
    tail = uses_z.branches[0].cont
    assert canon_process(r)[3][4][4] is canon_process(tail) == canon_process(second)


def test_the_term_asked_for_keeps_no_form_of_its_own():
    chain = syntax.parse_process("q!a(tt).q?b(x).q!c(x).q!d(tt).q!e(tt).0")
    canon_process(chain)
    kept = [getattr(s, "_key", None) is not None for s in subterms(chain)[:-1]]
    # the third node uses x, bound above it
    assert kept == [False, True, False, True, True]
    second = chain.branches[0].cont
    assert canon_process(chain)[4] is canon_process(second)


def test_free_names_match_reference():
    for t in random_terms(seed=5) + corpus_terms():
        for s in subterms(t):
            names = free_names(s)
            assert {n for n in names if isinstance(n, str)} == oracle_free_values(s)
            assert {n[1] for n in names if isinstance(n, tuple)} == oracle_free_procs(s)


# ---------------------------------------------------------------------------
# substitution


def test_substitution_matches_reference_and_shares_untouched_terms():
    rng = random.Random(3)
    for t in random_terms(seed=7):
        for s in subterms(t):
            var = rng.choice(VALUE_NAMES + ("u",))
            value = rng.choice((TT, NatVal(4), Var("x"), Var("y")))
            got = substitute_value(s, value, var)
            assert oracle_canon(got) == oracle_canon(oracle_substitute(s, value, var))
            assert (got is s) == (var not in oracle_free_values(s))


def test_substitute_returns_the_term_when_the_variable_is_not_free():
    p = syntax.parse_process("q?a(x).q!b(x).rec X.(q!c(tt).X + q?d(y).if y then X else 0)")
    assert substitute_value(p, TT, "x") is p
    assert substitute_value(p, TT, "y") is p
    assert substitute_proc(p, Nil(), "X") is p
    assert substitute_proc(p, Nil(), "Y") is p
    body = p.branches[0].cont
    assert substitute_value(body, NatVal(2), "x") != body
    unfolded = syntax.unfold_rec(body.branches[0].cont)
    assert unfolded.branches[1].cont.then is body.branches[0].cont


def test_deep_terms_substitute_and_print_without_recursion():
    # 5000 inputs over an output of x: the substitution rebuilds every node
    # above it, and the innermost binder, y0, would capture a value y0
    p = Choice((Branch(Prefix("q", "!", "out", payload=Var("x")), Nil()),))
    for i in range(5000):
        p = Choice((Branch(Prefix("q", "?", f"l{i}", var=f"y{i}"), p),))
    for value, tail in ((NatVal(7), "q?l0(y0).q!out(7).0"), (Var("y0"), "q?l0(y0_0).q!out(y0).0")):
        got = substitute_value(p, value, "x")
        text = syntax.render_process(got)
        assert text.startswith("q?l4999(y4999).q?l4998(y4998).") and text.endswith(tail)
        assert text.count(".") == 5001


def test_substitute_proc_matches_reference():
    for t in random_terms(seed=9):
        for s in subterms(t):
            if not isinstance(s, Rec):
                continue
            got = syntax.unfold_rec(s)
            assert (got is s.body) == (s.var not in oracle_free_procs(s.body))
            assert oracle_canon(got) == oracle_canon(rebuild_unfold(s))


def rebuild_unfold(rec):
    def walk(p):
        match p:
            case ProcVar(name) if name == rec.var:
                return rec
            case Rec(x, body):
                return p if x == rec.var else Rec(x, walk(body))
            case Choice(branches):
                return Choice(tuple(Branch(b.prefix, walk(b.cont)) for b in branches))
            case Cond(g, t, e):
                return Cond(g, walk(t), walk(e))
        return p

    return walk(rec.body)


# ---------------------------------------------------------------------------
# the facts are invisible


def test_cached_facts_do_not_change_equality_hash_or_repr():
    for t in random_terms(seed=13, count=40):
        fresh = rebuild(t)
        before = (repr(t), hash(t))
        canon_process(t)
        free_names(t)
        for s in subterms(t):
            canon_process(s)
        assert t == fresh and fresh == t
        assert (repr(t), hash(t)) == before == (repr(fresh), hash(fresh))
        assert "_key" not in repr(t) and "_free" not in repr(t)


# ---------------------------------------------------------------------------
# the memoised encoder


def chain_session(k):
    """Two participants exchanging k messages in alternating directions."""
    procs = {"p": [], "q": []}
    for i in range(k):
        sender, receiver = ("p", "q") if i % 2 == 0 else ("q", "p")
        procs[sender].append(f"{receiver}!m{i}(tt)")
        procs[receiver].append(f"{sender}?m{i}(v{i})")
    return parse_session(f"role p = {'.'.join(procs['p'] + ['ok'])} role q = {'.'.join(procs['q'] + ['0'])}")


def distinct_nodes(m):
    seen = set()
    todo = [proc for _, proc in m.parts]
    while todo:
        p = todo.pop()
        if id(p) in seen:
            continue
        seen.add(id(p))
        match p:
            case Choice(branches):
                todo += [b.cont for b in branches]
            case Cond(_, t, e):
                todo += [t, e]
            case Rec(_, body):
                todo.append(body)
    return len(seen)


@pytest.mark.parametrize("enc_id", sorted(set(encode.ENCODINGS) - {"lcmv-mcbs"}))
def test_encoded_chain_has_linearly_many_nodes(enc_id):
    sizes = {k: distinct_nodes(encode.encode(chain_session(k), enc_id)) for k in (8, 16, 32)}
    # every message adds the same number of nodes
    assert sizes[32] - sizes[16] == 2 * (sizes[16] - sizes[8]), sizes
    assert sizes[32] <= 8 * 32, sizes


def test_dummy_binders_are_the_smallest_name_not_free():
    m = parse_session("role p = q!a(tt).q!b(w0).0 + q!c(tt).0 role q = p?a(x).p?b(w0).0 + p?c(x).0")
    p = encode.encode(m, "scbs-bs").process_of("p")
    assert [b.prefix.var for b in p.branches] == ["w1", "w0"]


def test_type_encoder_translates_a_repeated_continuation_once():
    # mcbs-scbs repeats the translated outputs under reset, as one object;
    # translating the result again keeps that continuation one object
    delta = ltypes.LocalContext((("p", syntax.parse_ltype("q!a(bool).q!c(bool).end + q?b(bool).end")),))
    order = {"p": frozenset({("p", "q")})}
    once = encode.encode_types(delta, "mcbs-scbs", order=order)
    twice = encode.encode_types(once, "scbs-bs", order=order).type_of("p")
    repeated = [u for u in syntax._nodes(twice, ltypes._scope) if ltypes.render_type(u) == "q?enc_o(bool).q!c(bool).end"]
    assert len(repeated) == 2 and repeated[0] is repeated[1]


def deep_side(peer, k):
    """One side of a k-message chain with peer, outputs and inputs
    alternating, built in code: deeper than any parser allows."""
    p = Success()
    for i in reversed(range(k)):
        pre = Prefix(peer, "!", f"l{i}", payload=TT) if i % 2 == 0 else Prefix(peer, "?", f"l{i}", var=f"x{i}")
        p = Choice((Branch(pre, p),))
    return p


def test_deep_terms_rename_and_encode_without_recursion():
    k = 5000
    m = syntax.Session((("p", deep_side("q", k)), ("q", deep_side("p", k))))
    # q's first message differs from p's, so the comparison of the two forms
    # stops at their tops (comparing equal forms nested this deep recurses)
    first = Choice((Branch(Prefix("p", "!", "other", payload=TT), m.process_of("q").branches[0].cont),))
    assert not syntax.is_symmetric(m.with_parts({"q": first}), {"p": "q", "q": "p"})
    renamed = syntax.apply_rename(m, {"q": "r"})
    assert syntax.render_process(renamed.process_of("p")).startswith("r!l0(tt).r?l1(x1).")
    order = {"p": frozenset({("p", "q")})}
    t = ltypes.End()
    for i in reversed(range(k)):
        t = ltypes.TChoice((ltypes.TBranch("q", "!?"[i % 2], f"l{i}", "bool", t),))
    delta = ltypes.LocalContext((("p", t),))
    for enc_id, e in encode.ENCODINGS.items():
        if e.style == "lcmv":
            continue
        proc = encode.encode_process(m.process_of("p"), "p", order["p"], enc_id)
        assert f"l{k - 1}" in syntax.render_process(proc)
        typed = encode.encode_types(delta, enc_id, order=order).type_of("p")
        assert f"l{k - 1}" in ltypes.render_type(typed)
