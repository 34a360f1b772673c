"""Local session types: well-formedness, subtyping, the type-level LTS and
the decidable safety / deadlock-freedom checks on local contexts.

Subtyping follows the coinductive rules: output choices may grow on the
right, input choices may shrink, mixed choices are split into maximal
per-(participant, polarity) blocks that are related block-by-block, and
recursive types are handled by unfolding with memoised goals (pending pairs
assumed true, i.e. a greatest fixpoint).
"""

from __future__ import annotations

from . import lts, syntax
from .syntax import _fields, _record


@_record(frozen=True, slots=True)
class End(syntax._Term):
    pass


@_record(frozen=True, slots=True)
class TVar(syntax._Term):
    name: str


@_record(frozen=True, slots=True)
class TRec(syntax._Term):
    var: str
    body: "LocalType"


@_record(frozen=True, slots=True)
class TBranch:
    target: str
    polarity: str  # '!' or '?'
    label: str
    payload: str  # 'nat' or 'bool'
    cont: "LocalType"


@_record(frozen=True, slots=True)
class TChoice(syntax._Term):
    branches: tuple[TBranch, ...]

    def __post_init__(self):
        assert self.branches


LocalType = End | TVar | TRec | TChoice


@_record(frozen=True)
class LocalContext:
    entries: tuple[tuple[str, LocalType], ...]

    def __post_init__(self):
        names = [p for p, _ in self.entries]
        assert len(names) == len(set(names))

    def type_of(self, name: str) -> LocalType:
        for p, t in self.entries:
            if p == name:
                return t
        raise KeyError(name)

    def domain(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.entries)

    def with_entries(self, new: dict[str, LocalType]) -> "LocalContext":
        """This context with the types of the participants in new replaced."""
        return LocalContext(tuple((p, new.get(p, u)) for p, u in self.entries))


@_record(frozen=True)
class TypeAction:
    kind: str  # 'out', 'in' or 'ctx'
    subject: str  # acting participant ('ctx': the sender)
    peer: str
    label: str
    payload: str


# ---------------------------------------------------------------------------
# auxiliary functions


def pt(t: LocalType) -> set[str]:
    return {b.target for u in syntax._nodes(t, _scope) if isinstance(u, TChoice) for b in u.branches}


def prefix_set(t: LocalType) -> frozenset[tuple[str, str]]:
    """Prefixes of the top choice layer only."""
    while isinstance(t, TRec):
        t = t.body
    return frozenset((b.target, b.polarity) for b in t.branches) if isinstance(t, TChoice) else frozenset()


def ftv(t: LocalType) -> frozenset[str]:
    """The type variables free in t.  Each node's set is computed once, as
    for processes (see syntax.free_names)."""
    return syntax._free_of(t, _scope, _fill)


def _scope(t: LocalType) -> list:
    """t's subterms, each with the binder it sits under or None."""
    kind = type(t)
    if kind is TChoice:
        return [(b.cont, None) for b in t.branches]
    if kind is TRec:
        return [(t.body, t.var)]
    return []


def _fill(t: LocalType) -> None:
    free = frozenset((t.name,)) if type(t) is TVar else syntax._free_below(t, _scope)
    object.__setattr__(t, "_free", free)


def guarded(t: LocalType) -> bool:
    return all(syntax._guards(u.var, u.body, TRec, TVar) for u in syntax._nodes(t, _scope) if isinstance(u, TRec))


def closed(t: LocalType) -> bool:
    return not ftv(t)


def well_formed(t: LocalType) -> bool:
    """Every choice has pairwise distinct labels per (participant, polarity)."""
    return all(
        len({(b.target, b.polarity, b.label) for b in u.branches}) == len(u.branches)
        for u in syntax._nodes(t, _scope)
        if isinstance(u, TChoice)
    )


def tsubst(t: LocalType, repl: LocalType, var: str) -> LocalType:
    """t[repl/var] (see syntax._outside), checking no capture, for the
    contexts explored are closed, and filling no slots, for subtyping unfolds
    fresh types.  Every subterm in which var is not free is returned as the
    same object, so it keeps its form."""
    return syntax._rebuild(t, _scope, lambda u, subs: _rule(u, subs, var, repl), {}, syntax._outside(var, ()))


def _rule(t: LocalType, subs: list, var: str, repl: LocalType) -> LocalType:
    """t with the subterms subs, and repl for var if t is var; t itself, and
    each of its branches, when nothing in it changed."""
    kind = type(t)
    if kind is TChoice:
        if all(k is b.cont for k, b in zip(subs, t.branches)):
            return t
        return TChoice(tuple(b if k is b.cont else TBranch(b.target, b.polarity, b.label, b.payload, k)
                             for k, b in zip(subs, t.branches)))
    if kind is TRec:
        return t if subs[0] is t.body else TRec(t.var, subs[0])
    return repl if kind is TVar and t.name == var else t


def unfold(t: LocalType) -> LocalType:
    if isinstance(t, TRec):
        return tsubst(t.body, t, t.var)
    return t


def head(t: LocalType) -> LocalType:
    """Unfold outermost recursions down to end, a variable or a choice."""
    return syntax._head(t, TRec, unfold, ValueError, "unguarded recursive type")


# ---------------------------------------------------------------------------
# subtyping


def _blocks(branches: tuple[TBranch, ...]) -> dict[tuple[str, str], dict[str, TBranch]]:
    out: dict[tuple[str, str], dict[str, TBranch]] = {}
    for b in branches:
        out.setdefault((b.target, b.polarity), {})[b.label] = b
    return out


def subtype(t1: LocalType, t2: LocalType) -> bool:
    if not (well_formed(t1) and well_formed(t2)):
        raise ValueError("subtype requires well-formed types")
    return _subtype(t1, t2, set())


def _subtype(a: LocalType, b: LocalType, assumed: set) -> bool:
    key = (a, b)
    if key in assumed:
        return True
    assumed.add(key)
    if isinstance(a, TRec):
        return _subtype(unfold(a), b, assumed)
    if isinstance(b, TRec):
        return _subtype(a, unfold(b), assumed)
    if isinstance(a, End) and isinstance(b, End):
        return True
    if isinstance(a, TVar) or isinstance(b, TVar):
        return a == b
    if isinstance(a, TChoice) and isinstance(b, TChoice):
        left = _blocks(a.branches)
        right = _blocks(b.branches)
        if set(left) != set(right):
            return False
        for (target, pol), la in left.items():
            lb = right[(target, pol)]
            if pol == "!":
                small, big = la, lb  # outputs may grow on the right
            else:
                small, big = lb, la  # inputs may shrink on the right
            if not set(small) <= set(big):
                return False
            for label in small:
                if la[label].payload != lb[label].payload:
                    return False
                if not _subtype(la[label].cont, lb[label].cont, assumed):
                    return False
        return True
    return False


def types_equal(t1: LocalType, t2: LocalType) -> bool:
    """Equality of the infinite unfoldings: subtyping both ways, which is
    antisymmetric on well-formed types.  Ill-formed types raise ValueError,
    as in subtype."""
    return subtype(t1, t2) and subtype(t2, t1)


def context_subtype(d1: LocalContext, d2: LocalContext) -> bool:
    dom1, dom2 = set(d1.domain()), set(d2.domain())
    for p in dom1 & dom2:
        if not subtype(d1.type_of(p), d2.type_of(p)):
            return False
    for p in dom1 - dom2:
        if not isinstance(head(d1.type_of(p)), End):
            return False
    for q in dom2 - dom1:
        if not isinstance(head(d2.type_of(q)), End):
            return False
    return True


# ---------------------------------------------------------------------------
# LTS of types and contexts


def type_transitions(participant: str, t: LocalType) -> list[tuple[TypeAction, LocalType]]:
    h = head(t)
    if not isinstance(h, TChoice):
        return []
    out = []
    for b in h.branches:
        kind = "out" if b.polarity == "!" else "in"
        out.append((TypeAction(kind, participant, b.target, b.label, b.payload), b.cont))
    return out


def _sync_steps(p: str, hp: TChoice, q: str, hq: TChoice):
    """The synchronisations in which p sends to q, which depend on the heads
    of their types alone (hp and hq): p may send p!q:l(U) and q may receive
    the same label with the same payload type from p.  Each is (p's branch
    index, action, p's new type, q's new type).  Also p's first output to q
    that cannot fire though q listens to p, as (branch index, output), or None."""
    out, unsafe = [], None
    listens = any(c.polarity == "?" and c.target == p for c in hq.branches)
    for i, bp in enumerate(hp.branches):
        if bp.polarity != "!" or bp.target != q:
            continue
        fired = len(out)
        for bq in hq.branches:
            if bq.polarity == "?" and bq.target == p and bq.label == bp.label and bq.payload == bp.payload:
                out.append((i, TypeAction("ctx", p, q, bp.label, bp.payload), bp.cont, bq.cont))
        if listens and len(out) == fired and unsafe is None:
            unsafe = i, TypeAction("out", p, q, bp.label, bp.payload)
    return out, unsafe


def _table(delta: LocalContext):
    """A term table for the types of delta (see lts.Terms), its pair steps,
    ordered by the sender's place in delta's entries, then by its branch,
    and the unsafe outputs they met, as (that place, see _sync_steps)."""
    table = lts.Terms(delta.domain(), _type_form, head, _targets)
    rank = {table.place[p]: r for r, p in enumerate(delta.domain())}
    t = table
    unsafe = []

    def pair(k: int, lid: int, j: int, jlid: int):
        found, bad = _sync_steps(t.names[k], t.term[t.head[lid]], t.names[j], t.term[t.head[jlid]])
        if bad:
            unsafe.append((rank[k], *bad))
        # a new type is a continuation of a head, whose form the table made,
        # so it reads its kept form
        return [((rank[k], i), act, ((k, tp, t.fid_of(_type_form(tp))), (j, tq, t.fid_of(_type_form(tq)))))
                for i, act, tp, tq in found]

    return table, pair, unsafe


def _targets(t: LocalType) -> list[str] | None:
    return [b.target for b in t.branches if b.polarity == "!"] if isinstance(t, TChoice) else None


def context_steps(delta: LocalContext) -> list[tuple[TypeAction, LocalContext]]:
    """All synchronisations with the contexts they lead to."""
    table, pair, _ = _table(delta)
    types = dict(delta.entries)
    lids = tuple(table.lid(types[p]) for p in table.names)
    return [(act, delta.with_entries({table.names[k]: u for k, u, _ in new})) for _, act, new in table.steps(lids, pair)]


_END_FORM = ("end",)


def _type_form(t: LocalType) -> tuple:
    """The canonical form of t, equal for two types exactly when they are
    alpha-equivalent (see syntax._canon_walk)."""
    return syntax._canon_walk(t, _scope, _form, _fill)


def _form(t: LocalType, env: tuple, forms: list) -> tuple:
    kind = type(t)
    if kind is TChoice:
        return ("sum", tuple(sorted((b.target, b.polarity, b.label, b.payload, k) for b, k in zip(t.branches, forms))))
    if kind is End:
        return _END_FORM
    if kind is TVar:
        return syntax._bound(env, t.name, t.name)
    if kind is TRec:
        return ("rec", forms[0])
    raise TypeError(t)


def canon_context(delta: LocalContext) -> tuple:
    return tuple(sorted((p, _type_form(t)) for p, t in delta.entries))


@_record
class ContextGraph(lts.Graph):
    @property
    def contexts(self) -> list[LocalContext]:
        return self.states


def explore_contexts(delta: LocalContext, max_states: int | None = None, max_depth: int | None = None, stop=None) -> ContextGraph:
    """Every context reachable from delta, identified by canon_context, in
    breadth-first order, within the optional bounds (see
    lts.Terms.explore).  The synchronisations of a pair of types met in
    several contexts are enumerated once per call.  stop, when given, is
    lts.explore's, called with two more arguments: the term table and the
    unsafe outputs met so far (see _table)."""
    for _, t in delta.entries:
        if not (closed(t) and guarded(t) and well_formed(t)):
            raise ValueError("context entries must be closed, guarded and well-formed")
    # well-formed types have distinct labels per (participant, polarity), so
    # no two synchronisations from one context are the same edge
    table, pair, unsafe = _table(delta)
    check = stop and (lambda i, work, found: stop(i, work, found, table, unsafe))
    graph = table.explore([delta.entries], End(), pair, None, LocalContext, False, max_states, max_depth, check)
    return ContextGraph(**vars(graph))


def is_safe(delta: LocalContext, max_states: int | None = None, max_depth: int | None = None):
    """Whenever some p has an output toward a q that is listening to p at all,
    the exact (label, payload) of the output must be able to fire; closed
    under reachability.  Returns (ok, counterexample or None) (see _verdict);
    raises TruncatedError only when a bound cuts the run short before one."""

    def offending(work, found, table, unsafe):
        # a pair is checked when a context first holds it, and the run ends at
        # the first unsafe context, so each unsafe output met is this one's
        return unsafe and {"offending": _fields(min(unsafe)[2])}

    return _verdict(delta, max_states, max_depth, offending)


def is_deadlock_free(delta: LocalContext, max_states: int | None = None, max_depth: int | None = None):
    """Every reachable stuck context is all-end.  Returns (ok, evidence) (see
    _verdict); raises TruncatedError only when a bound cuts the run short
    before a stuck context is found."""

    def stuck(work, found, table, unsafe):
        # stuck is having no step: a states cut can leave steps without successors
        order, lids = work
        bad = [] if found else [p for p, k in order if not isinstance(table.term[table.head[lids[k]]], End)]
        return bad and {"stuck": bad}

    return _verdict(delta, max_states, max_depth, stuck)


def _verdict(delta: LocalContext, max_states, max_depth, bad):
    """(True, None) when bad(work, steps, table, unsafe) (see explore_contexts)
    is empty for every context reachable from delta, else (False, its
    evidence for the first context it is not, with a shortest path there)."""
    hit = []

    def stop(i, work, found, table, unsafe):
        evidence = bad(work, found, table, unsafe)
        if evidence:
            hit.append((i, evidence))
        return evidence

    graph = explore_contexts(delta, max_states, max_depth, stop)
    if not hit:
        graph.complete("context exploration")
        return True, None
    i, evidence = hit[0]
    return False, {"path": [_fields(a) for a in graph.path(i)], **evidence}


# ---------------------------------------------------------------------------
# rendering


def render_type(t: LocalType) -> str:
    """The surface syntax of t (see syntax._render)."""
    return syntax._render([t], _text)


def _text(t: LocalType) -> list:
    """t's text and subterms, in order."""
    kind = type(t)
    if kind is TChoice:
        out = []
        for b in t.branches:
            out += (" + ", f"{b.target}{b.polarity}{b.label}({b.payload}).", *_cont(b.cont))
        return out[1:]
    if kind is TRec:
        return [f"rec {t.var}.", *_cont(t.body)]
    if kind is End:
        return ["end"]
    if kind is TVar:
        return [t.name]
    raise TypeError(t)


def _cont(t: LocalType) -> tuple:
    """A continuation's items: bracketed when it is a sum or a recursion."""
    return ("(", t, ")") if type(t) is TRec or (type(t) is TChoice and len(t.branches) > 1) else (t,)
