"""The memoised lcmv classifier, translator, substitution and canonical forms
against straightforward references: a path-keyed classifier and a
translator that start afresh for every state, a substitution that rebuilds
the whole term and canonical forms that number binders by level.  The
references are checked on every explored state of every .cmv fixture and of
a seeded corpus of random linear programs."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import pytest

from mcmp import lcmv, lts, syntax
from mcmp.lcmv import CBranch, CChoice, CCond, CmvTypeError, CPar, CRes, CSuccess, Inact
from mcmp.syntax import TT, BoolVal, Branch, Choice, McmpError, NatVal, Nil, Prefix, Session, Success, Var

import corpus

# ---------------------------------------------------------------------------
# references


def ref_subterms(p, path=""):
    out, todo = [], [(path, p)]
    while todo:
        path, q = todo.pop()
        out.append((path, q))
        match q:
            case CChoice(_, branches):
                todo.extend((f"{path}.{k}", b.cont) for k, b in enumerate(branches))
            case CPar(l, r):
                todo.extend([(f"{path}.l", l), (f"{path}.r", r)])
            case CCond(_, t, e):
                todo.extend([(f"{path}.then", t), (f"{path}.else", e)])
    return out


def ref_endpoints(p, endpoints):
    return {q.endpoint for _, q in ref_subterms(p) if isinstance(q, CChoice) and q.endpoint in endpoints}


@dataclass(frozen=True)
class RefChoiceT:
    paths: tuple
    branches: tuple


class RefEnd:
    pass


def ref_value_type(v, env):
    if isinstance(v, NatVal):
        return "nat"
    if isinstance(v, BoolVal):
        return "bool"
    if v.name not in env:
        raise CmvTypeError(f"cannot type open payload {v.name!r}")
    return env[v.name]


def ref_protocol(p, endpoint, env, path):
    match p:
        case Inact() | CSuccess():
            return RefEnd()
        case CChoice(ep, branches):
            if ep == endpoint:
                sigs = []
                for k, b in enumerate(branches):
                    if b.polarity == "!":
                        payload = ref_value_type(b.payload, env)
                        cont = ref_protocol(b.cont, endpoint, env, f"{path}.{k}")
                    else:
                        payload = "bool"
                        cont = ref_protocol(b.cont, endpoint, dict(env, **{b.var: "bool"}), f"{path}.{k}")
                    sigs.append((b.label, b.polarity, payload, cont))
                merged = {}
                for label, pol, payload, cont in sigs:
                    if (label, pol) in merged:
                        old_payload, old_cont = merged[label, pol]
                        cont = ref_merge(old_cont, cont) if old_payload == payload else None
                        if cont is None:
                            raise CmvTypeError("disagree")
                    merged[label, pol] = (payload, cont)
                return RefChoiceT((path,), tuple(sorted(((l, pol, pl, c) for (l, pol), (pl, c) in merged.items()),
                                                        key=lambda s: s[:3])))
            kinds = []
            for k, b in enumerate(branches):
                inner = dict(env, **{b.var: "bool"}) if b.polarity == "?" else env
                kinds.append(ref_protocol(b.cont, endpoint, inner, f"{path}.{k}"))
            return ref_merge_equal(kinds)
        case CCond(_, t, e):
            return ref_merge_equal([ref_protocol(t, endpoint, env, f"{path}.then"),
                                    ref_protocol(e, endpoint, env, f"{path}.else")])
        case CPar(l, r):
            return ref_protocol_in_par([(f"{path}.l", l), (f"{path}.r", r)], endpoint, env)
        case CRes():
            raise CmvTypeError("inner restriction")
    raise TypeError(p)


def ref_protocol_in_par(parts, endpoint, env):
    used = [(path, q) for path, q in parts if ref_endpoints(q, {endpoint})]
    if len(used) > 1:
        raise CmvTypeError("not linear")
    return ref_protocol(used[0][1], endpoint, env, used[0][0]) if used else RefEnd()


def ref_merge_equal(kinds):
    used = [k for k in kinds if not isinstance(k, RefEnd)]
    if not used:
        return RefEnd()
    merged = used[0]
    for other in used[1:]:
        merged = ref_merge(merged, other)
        if merged is None:
            raise CmvTypeError("different types")
    if len(used) != len(kinds):
        raise CmvTypeError("dropped")
    return merged


def ref_merge(a, b):
    if isinstance(a, RefEnd) and isinstance(b, RefEnd):
        return a
    if not (isinstance(a, RefChoiceT) and isinstance(b, RefChoiceT)) or len(a.branches) != len(b.branches):
        return None
    branches = []
    for (la, pa, ua, ca), (lb, pb, ub, cb) in zip(a.branches, b.branches):
        cont = ref_merge(ca, cb) if (la, pa, ua) == (lb, pb, ub) else None
        if cont is None:
            return None
        branches.append((la, pa, ua, cont))
    return RefChoiceT(a.paths + b.paths, tuple(branches))


def ref_dual_assign(tx, ty, assign, x_internal):
    if isinstance(tx, RefEnd) and isinstance(ty, RefEnd):
        return True
    if isinstance(tx, RefEnd) or isinstance(ty, RefEnd):
        return False
    internal, external = (tx, ty) if x_internal else (ty, tx)
    ext = {(l, p): (u, c) for l, p, u, c in external.branches}
    for label, pol, payload, cont in internal.branches:
        hit = ext.get((label, "?" if pol == "!" else "!"))
        if hit is None:
            return False
        if pol == "!" and payload != hit[0]:
            return False
        a, b = (cont, hit[1]) if x_internal else (hit[1], cont)
        if not ref_dual_or_backtrack(a, b, assign):
            return False
    assign.update(dict.fromkeys(internal.paths, "internal"))
    assign.update(dict.fromkeys(external.paths, "external"))
    return True


def ref_dual_or_backtrack(tx, ty, assign):
    for x_internal in (True, False):
        trial = dict(assign)
        if ref_dual_assign(tx, ty, trial, x_internal):
            assign.clear()
            assign.update(trial)
            return True
    return False


def ref_check(p):
    components = [(str(k), c) for k, c in enumerate(lcmv._components(p.body))]
    tx = ref_protocol_in_par(components, p.x, {})
    ty = ref_protocol_in_par(components, p.y, {})
    assign = {}
    if not ref_dual_or_backtrack(tx, ty, assign):
        raise CmvTypeError("no assignment")
    for path, c in components:
        for sub, q in ref_subterms(c, path):
            if isinstance(q, CChoice):
                assign.setdefault(sub, "internal")
    return assign


def ref_encode(p):
    classes = ref_check(p)
    x, y = p.x, p.y
    serial = itertools.count()
    parts = []
    for position, comp in enumerate(lcmv._components(p.body)):
        match comp:
            case CSuccess():
                parts.append((f"ok{next(serial)}", Success()))
            case CChoice(endpoint, _):
                if endpoint not in (x, y):
                    raise McmpError("free endpoint")
                if ref_endpoints(comp, {x, y}) == {x, y}:
                    parts.append((endpoint, Nil()))
                else:
                    peer = y if endpoint == x else x
                    parts.append((endpoint, ref_encode_proc(comp, peer, classes, serial, str(position))))
            case CCond():
                used = sorted(ref_endpoints(comp, {x, y}))
                if len(used) != 1:
                    raise McmpError("conditional components must use exactly one endpoint")
                peer = y if used[0] == x else x
                parts.append((used[0], ref_encode_proc(comp, peer, classes, serial, str(position))))
            case _:
                raise McmpError("cannot place component")
    return Session(tuple(parts))


def ref_encode_proc(p, peer, classes, serial, path):
    def enc(q, step):
        return ref_encode_proc(q, peer, classes, serial, f"{path}.{step}")

    match p:
        case Inact():
            return Nil()
        case CSuccess():
            return Success()
        case CCond(g, t, e):
            return syntax.Cond(g, enc(t, "then"), enc(e, "else"))
        case CChoice(_, branches):
            out = []
            if classes.get(path, "internal") == "internal":
                for k, b in enumerate(branches):
                    if b.polarity == "!":
                        out.append(Branch(Prefix(peer, "!", f"{b.label}.o", payload=b.payload), enc(b.cont, k)))
                    else:
                        inner = Choice((Branch(Prefix(peer, "?", b.label, var=b.var), enc(b.cont, k)),))
                        out.append(Branch(Prefix(peer, "!", f"{b.label}.i", payload=TT), inner))
            else:
                for k, b in enumerate(branches):
                    if b.polarity == "!":
                        inner = Choice((Branch(Prefix(peer, "!", b.label, payload=b.payload), enc(b.cont, k)),))
                        out.append(Branch(Prefix(peer, "?", f"{b.label}.i", var=f"z{next(serial)}"), inner))
                    else:
                        out.append(Branch(Prefix(peer, "?", f"{b.label}.o", var=b.var), enc(b.cont, k)))
            return Choice(tuple(out))
        case CPar():
            raise McmpError("parallel composition under a prefix")
    raise McmpError("inner restriction")


def ref_subst(p, value, var):
    """Substitution that rebuilds every node."""
    def sv(v):
        return value if isinstance(v, Var) and v.name == var else v

    match p:
        case CChoice(endpoint, branches):
            new = []
            for b in branches:
                if b.polarity == "!":
                    new.append(CBranch(b.label, "!", payload=sv(b.payload), cont=ref_subst(b.cont, value, var)))
                elif b.var == var:
                    new.append(b)
                else:
                    new.append(CBranch(b.label, "?", var=b.var, cont=ref_subst(b.cont, value, var)))
            return CChoice(endpoint, tuple(new))
        case CCond(g, t, e):
            return CCond(sv(g), ref_subst(t, value, var), ref_subst(e, value, var))
        case CPar(l, r):
            return CPar(ref_subst(l, value, var), ref_subst(r, value, var))
        case CRes(x, y, body):
            return CRes(x, y, ref_subst(body, value, var))
    return p


def ref_canon(p):
    """Canonical form numbering each binder by its level (its depth among
    the binders from the root)."""

    def walk(q, env):
        def cval(v):
            if isinstance(v, Var):
                for n, k in reversed(env):
                    if n == v.name:
                        return ("b", k)
                return ("f", v.name)
            return ("n", v.value) if isinstance(v, NatVal) else ("t", v.value)

        match q:
            case Inact():
                return ("0",)
            case CSuccess():
                return ("ok",)
            case CCond(g, t, e):
                return ("if", cval(g), walk(t, env), walk(e, env))
            case CChoice(endpoint, branches):
                items = []
                for b in branches:
                    if b.polarity == "!":
                        items.append(("!", b.label, cval(b.payload), walk(b.cont, env)))
                    else:
                        items.append(("?", b.label, walk(b.cont, env + ((b.var, len(env)),))))
                return ("lin", endpoint, tuple(sorted(items)))
            case CRes(x, y, body):
                return ("res", tuple(sorted((x, y))), tuple(sorted(walk(c, env) for c in lcmv._components(body))))
        return ("par", tuple(sorted(walk(c, env) for c in lcmv._components(q))))

    return walk(p, ())


def ref_explore(p, max_states):
    def transitions(q):
        return [(step, ref_canon(succ), succ) for step, succ in lcmv.cmv_enabled(q)]

    return lts.explore([(ref_canon(p), p)], transitions, lambda q, _: q, max_states)


# ---------------------------------------------------------------------------
# programs


# views that change between states for one node: after x receives the nat
# 3 into z and forwards it, x can no longer lead on a! (its payload is no
# longer a bool), so y's a-choice, the same object in both states, turns
# from external to internal; in the second program y's a-choice keeps its
# view while the b-choice below it turns
HAND = [
    "(new x y)(lin x (r?z. lin x (a!z.0)) | lin y (r!3. lin y (a?w.0)))",
    "(new x y)(lin x (r?z. lin x (a!tt. lin x (b!z.0))) | lin y (r!3. lin y (a?u. lin y (b?w.0))))",
    # an ok participant numbered after a z binder of an earlier component
    "(new x y)(lin y (a!tt.0) | ok | lin x (a?v.0) | ok)",
    "(new x y)(lin x (a!tt. lin x (b?w. ok)) | lin y (a?z. lin y (b!ff. 0)) | ok)",
    # a received variable forwarded twice and used in a guard
    "(new x y)(lin x (a?v. lin x (b!v. if v then lin x (c!v.ok) else lin x (c!tt.0)))"
    " | lin y (a!ff. lin y (b?u. lin y (c?w.0))))",
    # a payload variable no binder binds
    "(new x y)(lin x (a!q.0) | lin y (a?w.0))",
    "(new x y)(lin x (a?q.0 + b!q.0) | lin y (a!tt.0))",
    # parallel composition under a prefix
    "(new x y)(lin x (a!tt.(ok | 0)) | lin y (a?w.0))",
]


class _Gen:
    def __init__(self, rng):
        self.rng = rng
        self.names = itertools.count()

    def payload(self, scope):
        r = self.rng.random()
        if scope and r < 0.35:
            return self.rng.choice(scope)
        if r < 0.7:
            return self.rng.choice(("tt", "ff"))
        return str(self.rng.randrange(4))

    def pair(self, depth, xs, ys):
        """x's and y's continuations after the same history: dual, but for
        an extra branch now and then; xs and ys are the variables each side
        has received."""
        rng = self.rng
        if depth == 0 or rng.random() < 0.2:
            if rng.random() < 0.03:  # parallel composition under a prefix
                return "(ok | 0)", "0"
            return rng.choice((("0", "0"), ("0", "ok"), ("ok", "0"), ("ok", "ok")))
        xb, yb = [], []
        for label in rng.sample("abc", rng.randint(1, 2)):
            var = f"v{next(self.names)}"
            if rng.random() < 0.5:
                value = self.payload(xs)
                cx, cy = self.pair(depth - 1, xs, ys + [var])
                xb.append(f"{label}!{value}.{cx}")
                yb.append(f"{label}?{var}.{cy}")
                if rng.random() < 0.15:  # the same output again: a merged occurrence
                    xb.append(f"{label}!{self.payload(xs)}.{cx}")
            else:
                value = self.payload(ys)
                cx, cy = self.pair(depth - 1, xs + [var], ys)
                xb.append(f"{label}?{var}.{cx}")
                yb.append(f"{label}!{value}.{cy}")
        if rng.random() < 0.2:
            (xb if rng.random() < 0.5 else yb).append(rng.choice(("d!tt.0", "d!1.ok", "d?q.0")))
        x, y = f"lin x ({' + '.join(xb)})", f"lin y ({' + '.join(yb)})"
        if rng.random() < 0.15:
            x = f"if {self.guard(xs)} then {x} else {x}"
        if rng.random() < 0.15:
            y = f"if {self.guard(ys)} then {y} else {y}"
        return x, y

    def guard(self, scope):
        return self.rng.choice(scope) if scope and self.rng.random() < 0.5 else self.rng.choice(("tt", "ff"))

    def program(self):
        rng = self.rng
        if rng.random() < 0.05:
            return "(new x y)(lin x (l!tt. lin y (l?w.0)) | ok)"
        x, y = self.pair(rng.randint(1, 4), [], [])
        comps = [x, y]
        rng.shuffle(comps)
        for extra in ("ok", "0", "ok"):
            if rng.random() < 0.3:
                comps.insert(rng.randrange(len(comps) + 1), extra)
        return f"(new x y)({' | '.join(comps)})"


def corpus_programs(count=150, seed=20240607):
    gen = _Gen(random.Random(seed))
    return [gen.program() for _ in range(count)]


PROGRAMS = [corpus.text(name) for name in corpus.CMV] + HAND + corpus_programs()


def _outcome(f, *args):
    try:
        return f(*args)
    except McmpError as e:
        return type(e)


# ---------------------------------------------------------------------------
# tests


def test_corpus_covers_the_cases():
    kinds = {"typable": 0, "untypable": 0, "error": 0, "external output": 0, "ok after z": 0}
    for text in PROGRAMS:
        p = lcmv.parse_cmv(text)
        for s in lcmv.explore_cmv(p, max_states=300).states:
            out = _outcome(ref_encode, s)
            if out is CmvTypeError:
                kinds["untypable"] += 1
            elif isinstance(out, type):
                kinds["error"] += 1
            else:
                kinds["typable"] += 1
                names = [n for n, _ in out.parts]
                rendered = syntax.render_session(out)
                if "(z" in rendered:
                    kinds["external output"] += 1
                    if any(n.startswith("ok") and n != "ok0" for n in names):
                        kinds["ok after z"] += 1
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("start", range(0, len(PROGRAMS), 40))
def test_translator_matches_reference_on_every_state(start):
    for text in PROGRAMS[start:start + 40]:
        p = lcmv.parse_cmv(text)
        translator = lcmv._Translator(p.x, p.y)  # one per run, as the harness keeps it
        for i, s in enumerate(lcmv.explore_cmv(p, max_states=300).states):
            expected = _outcome(ref_encode, s)
            got = _outcome(translator.session, s)
            if isinstance(expected, type):
                assert got is expected, (text, i)
                continue
            assert not isinstance(got, type), (text, i, got)
            assert syntax.canon_session(got) == syntax.canon_session(expected), (text, i)
            assert translator.choice_views(s) == ref_check(s), (text, i)
            assert lcmv.check_cmv(s) == ref_check(s), (text, i)


def test_explore_matches_level_based_reference(monkeypatch):
    programs = [lcmv.parse_cmv(text) for text in PROGRAMS]
    graphs = [lcmv.explore_cmv(p, max_states=300) for p in programs]
    # the reference also substitutes by rebuilding every node
    monkeypatch.setattr(lcmv, "_subst_val", ref_subst)
    for text, p, g in zip(PROGRAMS, programs, graphs):
        ref = ref_explore(p, max_states=300)
        assert g.states == ref.states, text
        assert [(i, s.describe(), j) for i, s, j in g.edges] == [(i, s.describe(), j) for i, s, j in ref.edges]
        assert g.truncated == ref.truncated


def test_substitution_shares_untouched_subterms():
    checked = 0
    for text in PROGRAMS:
        p = lcmv.parse_cmv(text)
        for q in syntax._nodes(p, lcmv._scope):
            for var in sorted({"v0", "v1", "q", "z", "w"} | set(lcmv._free_of(q))):
                for value in (NatVal(3), BoolVal(False)):
                    got = lcmv._subst_val(q, value, var)
                    assert got == ref_subst(q, value, var), (text, var)
                    if var not in lcmv._free_of(q):
                        assert got is q
                    checked += 1
    assert checked > 1000


def test_forms_do_not_depend_on_sharing():
    # one node under binders at different distances: its form may be kept
    # only where no enclosing binder binds its free variables
    def shared(q):
        return CChoice("x", (CBranch("a", "?", var="v", cont=q),
                             CBranch("b", "?", var="v", cont=CChoice("x", (CBranch("c", "?", var="w", cont=q),)))))

    def terms():
        """A DAG that holds q twice, and a tree with a copy of q in the
        second place, both fresh, so no node keeps a form yet."""
        q = CChoice("x", (CBranch("d", "!", payload=Var("v"), cont=Inact()),))
        copy = CChoice("x", (CBranch("d", "!", payload=Var("v"), cont=Inact()),))
        dag = CRes("x", "y", shared(q))
        tree = CRes("x", "y", CChoice("x", (CBranch("a", "?", var="v", cont=q),
                                            CBranch("b", "?", var="v", cont=CChoice("x", (CBranch("c", "?", var="w", cont=copy),))))))
        return q, copy, dag, tree

    q, copy, dag, tree = terms()
    dag_first = [lcmv.cmv_canon(dag), lcmv.cmv_canon(tree)]
    _, _, dag2, tree2 = terms()
    tree_first = [lcmv.cmv_canon(tree2), lcmv.cmv_canon(dag2)]
    assert dag_first[0] == dag_first[1] == tree_first[0] == tree_first[1]
    # q and its copy use v, which a binder around them binds everywhere
    assert q._key is None and copy._key is None
    # a closed subterm keeps its form; the term asked for does not
    assert dag.body._key is not None and dag._key is None
    # kept forms give the same answer again
    assert [lcmv.cmv_canon(dag), lcmv.cmv_canon(tree)] == dag_first
    # and one that uses v at index 0 everywhere is a different term
    other = CRes("x", "y", CChoice("x", (CBranch("a", "?", var="v", cont=q),
                                         CBranch("b", "?", var="w", cont=CChoice("x", (CBranch("c", "?", var="v", cont=copy),))))))
    assert lcmv.cmv_canon(other) != lcmv.cmv_canon(tree)
    assert (ref_canon(other) == ref_canon(tree)) == (lcmv.cmv_canon(other) == lcmv.cmv_canon(tree))


def test_canonical_forms_agree_with_level_based_reference():
    # two states have one form exactly when they have one reference form
    states = []
    for text in PROGRAMS[:80]:
        states += lcmv.explore_cmv(lcmv.parse_cmv(text), max_states=50).states
    ours = [lcmv.cmv_canon(s) for s in states]
    theirs = [ref_canon(s) for s in states]
    for (a, ra), (b, rb) in itertools.combinations(zip(ours, theirs), 2):
        assert (a == b) == (ra == rb)
    # the states' nodes now keep their forms, which give the same answers
    assert [lcmv.cmv_canon(s) for s in states] == ours


def _chain(k):
    xs = " ".join(f"lin x (m{i}!tt." if i % 2 == 0 else f"lin x (m{i}?v{i}." for i in range(k))
    ys = " ".join(f"lin y (m{i}?v{i}." if i % 2 == 0 else f"lin y (m{i}!ff." for i in range(k))
    return lcmv.parse_cmv(f"(new x y)({xs} 0{')' * k} | {ys} ok{')' * k})")


def _target_nodes(k):
    """The distinct process nodes in the translations of every state of a
    k-message chain, translated by one translator."""
    p = _chain(k)
    translator = lcmv._Translator(p.x, p.y)
    seen: dict = {}
    todo = [proc for s in lcmv.explore_cmv(p).states for _, proc in translator.session(s).parts]
    while todo:
        q = todo.pop()
        if id(q) not in seen:
            seen[id(q)] = q
            todo += (sub for sub, _ in syntax._scope(q))
    return len(seen)


def test_translations_share_nodes_across_states():
    counts = {k: _target_nodes(k) for k in (20, 40, 80)}
    # a translator that started afresh for each state would build about
    # k*k nodes; shared, the count grows with k
    assert counts[40] <= 2.2 * counts[20] and counts[80] <= 2.2 * counts[40], counts
    assert counts[80] < 10 * 80, counts


def test_deep_programs_substitute_and_print_without_recursion():
    # the variable w that y's first input binds is sent 5000 prefixes below
    k = 5000
    heads = [f"lin y (m{i}?v{i}." for i in range(k)]
    p = lcmv.parse_cmv(f"(new x y)(lin x (a!7.0) | lin y (a?w.{' '.join(heads)} lin y (b!w.0){')' * k}))")
    cont = p.body.right.branches[0].cont
    got = lcmv._subst_val(cont, NatVal(7), "w")
    assert lcmv._free_of(got) == frozenset()
    [(_, succ)] = lcmv.cmv_enabled(p)
    text = lcmv.render_cmv(succ)
    assert text == f"(new x y)({''.join(heads)}lin y (b!7.0){')' * k})"
    assert lcmv.render_cmv(got) == text[len("(new x y)("):-1]


def test_reduction_refuses_a_capturing_binder():
    # z, the value sent, would reach the conditional under the input binder
    # z: refused, as a process's substitution refuses it
    p = lcmv.parse_cmv("(new x y)(lin x (a!z.0) | lin y (a?w. lin y (b?z. if w then 0 else ok)))")
    with pytest.raises(McmpError, match="substituting for w under the binder z would capture"):
        lcmv.cmv_enabled(p)
    # the same value past a binder that does not sit over w
    p = lcmv.parse_cmv("(new x y)(lin x (a!z.0) | lin y (a?w. lin y (b?v. if w then 0 else ok)))")
    [(_, succ)] = lcmv.cmv_enabled(p)
    assert lcmv.render_cmv(succ) == "(new x y)(lin y (b?v.if z then 0 else ok))"
    assert lcmv._free_of(succ) == {"z"}


def test_parser_reads_long_chains_without_recursion():
    p = _chain(5000)
    # two choices per message, the two tails, the parallel composition and
    # the restriction
    assert len(syntax._nodes(p, lcmv._scope)) == 2 * 5000 + 4
