"""Linear mixed-choice binary sessions over two endpoints: parsing, the lin
reduction rules, a duality-based classifier assigning every choice an
internal or external view, the translation into mixed-choice binary
multiparty sessions, and the good-encoding harness for that translation.

Only the linear single-session fragment is supported: one outermost
restriction, lin choices, value payloads.

Every state a program reduces to keeps its two endpoints, and a step keeps
the subterms it does not touch as the same objects.  So one _Translator
serves a whole run: it classifies, translates and keys each subterm once,
in caches keyed by node identity that live as long as it does.
"""

from __future__ import annotations

import re

from . import lts, syntax
from .syntax import (
    TT,
    BoolVal,
    Branch,
    Choice,
    McmpError,
    NatVal,
    Nil,
    Prefix,
    Process,
    Session,
    Success,
    Value,
    Var,
    _canon_value,
    _record,
    _union,
    _with_value,
    render_value,
)


class _CmvTerm(syntax._Term):
    """Base of the process nodes: a term node (see syntax._Term) whose _free
    holds its free value variables, and whose _ends holds the endpoints of
    the choices in it, outside inner restrictions.  All three slots stay
    unset until _free_of first meets the node, and take no part in ==,
    hash or repr."""

    __slots__ = ("_ends",)


@_record(frozen=True, slots=True)
class Inact(_CmvTerm):
    pass


@_record(frozen=True, slots=True)
class CSuccess(_CmvTerm):
    pass


@_record(frozen=True, slots=True)
class CPar(_CmvTerm):
    left: "CmvProcess"
    right: "CmvProcess"


@_record(frozen=True, slots=True)
class CRes(_CmvTerm):
    x: str
    y: str
    body: "CmvProcess"


@_record(frozen=True, slots=True)
class CBranch:
    label: str
    polarity: str  # '!' or '?'
    payload: Value | None = None
    var: str | None = None
    cont: "CmvProcess" = None  # type: ignore[assignment]


@_record(frozen=True, slots=True)
class CChoice(_CmvTerm):
    endpoint: str
    branches: tuple[CBranch, ...]

    def __post_init__(self):
        assert self.branches


@_record(frozen=True, slots=True)
class CCond(_CmvTerm):
    guard: Value
    then: "CmvProcess"
    els: "CmvProcess"


CmvProcess = Inact | CSuccess | CPar | CRes | CChoice | CCond


# ---------------------------------------------------------------------------
# parsing


_CMV_TOKENS = re.compile(
    r"""(?P<ws>[ \t\r\n]+) | (?P<comment>\#[^\n]*) | (?P<nat>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*) | (?P<punct>[()|+.!?])""",
    re.VERBOSE,
)


class _CmvParser(syntax._Parser):
    """The .cmv grammar over the session parser's tokens.  It has no
    keywords: new, lin, un, if, then, else and ok are identifiers read by
    their text, and tt and ff are values only where a value is expected, so
    a label or a binder may take any of these names."""

    def __init__(self, text: str):
        self.toks = syntax._tokenize(text, _CMV_TOKENS, ())
        self.i = 0

    def _keyword(self, word: str) -> None:
        t = self.next()
        if t.kind != "ident" or t.text != word:
            raise syntax.ParseError(f"expected {word}, found {t.text!r}", t.line, t.col)

    def parse_program(self) -> CmvProcess:
        self.expect("(")
        t = self.expect("ident")
        if t.text != "new":
            raise syntax.ParseError("program must start with (new x y)", t.line, t.col)
        x = self.expect("ident").text
        y = self.expect("ident").text
        if x == y:
            raise syntax.ParseError("restriction binds two distinct endpoints", t.line, t.col)
        self.expect(")")
        self.expect("(")
        body = self.parse_par()
        self.expect(")")
        if self.peek().kind != "eof":
            raise self.error(f"unexpected trailing input {self.peek().text!r}")
        return CRes(x, y, body)

    def parse_par(self) -> CmvProcess:
        left = self.parse_single()
        while self.peek().kind == "|":
            self.next()
            left = CPar(left, self.parse_single())
        return left

    def parse_single(self) -> CmvProcess:
        # Prefixes nest to the right, so the choices and conditionals still
        # open are kept on a stack, ["lin", endpoint, branches, head] or
        # ["if", guard, then-arm], and each is built once its innermost
        # process is read: no recursion per prefix.
        pending: list[list] = []
        while True:
            node = self._open(pending)
            if node is None:
                continue
            while pending:
                frame = pending[-1]
                if frame[0] == "if":
                    if frame[2] is None:
                        frame[2] = node
                        self._keyword("else")
                        break
                    pending.pop()
                    node = CCond(frame[1], frame[2], node)
                    continue
                label, pol, value = frame[3]
                if pol == "!":
                    frame[2].append(CBranch(label, "!", payload=value, cont=node))
                else:
                    frame[2].append(CBranch(label, "?", var=value, cont=node))
                if self.peek().kind == "+":
                    self.next()
                    frame[3] = self._branch_head()
                    break
                self.expect(")")
                pending.pop()
                node = CChoice(frame[1], tuple(frame[2]))
            else:
                return node

    def _open(self, pending: list[list]) -> CmvProcess | None:
        """Read a whole process, or open a choice or conditional on pending
        and return None."""
        t = self.peek()
        if t.kind == "nat" and t.text == "0":
            self.next()
            return Inact()
        if t.kind == "ident" and t.text == "ok":
            self.next()
            return CSuccess()
        if t.kind == "ident" and t.text == "if":
            self.next()
            guard = self.parse_value()
            self._keyword("then")
            pending.append(["if", guard, None])
            return None
        if t.kind == "ident" and t.text == "lin":
            self.next()
            endpoint = self.expect("ident").text
            self.expect("(")
            pending.append(["lin", endpoint, [], self._branch_head()])
            return None
        if t.kind == "ident" and t.text == "un":
            raise syntax.ParseError("unrestricted choices are outside the linear fragment", t.line, t.col)
        if t.kind == "(":
            self.next()
            inner = self.parse_par()
            self.expect(")")
            return inner
        raise self.error(f"expected a process, found {t.text!r}")

    def _branch_head(self) -> tuple[str, str, Value | str]:
        """A branch up to its continuation: label, polarity, and the
        payload of an output or the variable of an input."""
        label = self.expect("ident").text
        pol = self.next()
        if pol.kind == "!":
            payload = self.parse_value()
            self.expect(".")
            return label, "!", payload
        if pol.kind == "?":
            var = self.expect("ident").text
            self.expect(".")
            return label, "?", var
        raise syntax.ParseError("expected ! or ?", pol.line, pol.col)


def _scope(p: CmvProcess) -> list:
    """p's subterms, each with the binder it sits under or None: an input's
    variable.  A restriction binds endpoints, which forms keep as names."""
    kind = type(p)
    if kind is CChoice:
        return [(b.cont, None if b.polarity == "!" else b.var) for b in p.branches]
    if kind is CCond:
        return [(p.then, None), (p.els, None)]
    if kind is CPar:
        return [(p.left, None), (p.right, None)]
    if kind is CRes:
        return [(p.body, None)]
    return []


def parse_cmv(text: str) -> CmvProcess:
    return _CmvParser(text).parse_program()


def render_cmv(p: CmvProcess) -> str:
    """The surface syntax of p (see syntax._render): every component,
    inaction included, joined by |."""
    return syntax._render([p], _text)


def _text(p: CmvProcess) -> list:
    """p's text and subterms, in order."""
    kind = type(p)
    if kind is CChoice:
        out = []
        for b in p.branches:
            head = f"{b.label}!{render_value(b.payload)}." if b.polarity == "!" else f"{b.label}?{b.var}."
            out += (" + ", head, *_cont(b.cont))
        return [f"lin {p.endpoint} (", *out[1:], ")"]
    if kind is CPar:
        return [p.left, " | ", p.right]
    if kind is Inact:
        return ["0"]
    if kind is CSuccess:
        return ["ok"]
    if kind is CCond:
        return [f"if {render_value(p.guard)} then ", *_cont(p.then), " else ", *_cont(p.els)]
    if kind is CRes:
        return [f"(new {p.x} {p.y})(", p.body, ")"]
    raise TypeError(p)


def _cont(p: CmvProcess) -> tuple:
    """A continuation's items: bracketed when it is a composition."""
    return ("(", p, ")") if type(p) is CPar else (p,)


# ---------------------------------------------------------------------------
# free variables and endpoints

_NONE: frozenset = frozenset()


def _free_of(p: CmvProcess) -> frozenset:
    """The value variables free in p."""
    return syntax._free_of(p, _scope, _fill)


def _ends_of(p: CmvProcess) -> frozenset:
    """The endpoints of the choices in p, outside inner restrictions."""
    _free_of(p)
    return p._ends


def _fill(q: CmvProcess) -> None:
    """Set q's slots from its children's.  A node with the same set as a
    child shares the child's set."""
    free, ends = syntax._free_below(q, _scope), _NONE
    if type(q) is not CRes:
        for k, _ in _scope(q):
            ends = _union(ends, k._ends)
    match q:
        case CChoice(endpoint, branches):
            for b in branches:
                if b.polarity == "!":
                    free = _with_value(free, b.payload)
            if endpoint not in ends:
                ends = ends | {endpoint}
        case CCond(g, _, _):
            free = _with_value(free, g)
    object.__setattr__(q, "_free", free)
    object.__setattr__(q, "_ends", ends)


# ---------------------------------------------------------------------------
# reduction


def _components(p: CmvProcess) -> list[CmvProcess]:
    """The parallel components of p, left to right, without inaction."""
    out, todo = [], [p]
    while todo:
        q = todo.pop()
        if isinstance(q, CPar):
            todo += (q.right, q.left)
        elif not isinstance(q, Inact):
            out.append(q)
    return out


def _rebuild(components: list[CmvProcess]) -> CmvProcess:
    live = [c for c in components if not isinstance(c, Inact)]
    if not live:
        return Inact()
    out = live[0]
    for c in live[1:]:
        out = CPar(out, c)
    return out


def _subst_val(p: CmvProcess, value: Value, var: str) -> CmvProcess:
    """p[value/var], renaming a binder that would capture a variable value
    as a process's substitution does (see syntax._substitute).  Every
    subterm in which var is not free is returned as the same object, so a
    step rebuilds only the path to var's occurrences."""
    if var not in _free_of(p):
        return p
    avoid = (value.name,) if isinstance(value, Var) else ()
    return syntax._substitute(p, var, value, _scope, _rule, _free_of, avoid)


def _rule(p: CmvProcess, subs: list, binders: list, var: str, value: Value) -> CmvProcess:
    """p with the subterms subs under binders, and with value for var where
    var stands in p itself."""
    kind = type(p)
    if kind is CChoice:
        new = []
        for b, cont, binder in zip(p.branches, subs, binders):
            if b.polarity == "!":
                new.append(CBranch(b.label, "!", payload=value if b.payload == Var(var) else b.payload, cont=cont))
            else:
                new.append(b if cont is b.cont and binder == b.var else CBranch(b.label, "?", var=binder, cont=cont))
        return CChoice(p.endpoint, tuple(new))
    if kind is CCond:
        return CCond(value if p.guard == Var(var) else p.guard, subs[0], subs[1])
    if kind is CPar:
        return CPar(subs[0], subs[1])
    if kind is CRes:
        return CRes(p.x, p.y, subs[0])
    return p


@_record(frozen=True)
class CmvStep:
    """consumed holds the positions, in the state's parallel components, of
    the components whose top-level term the step consumes."""

    kind: str  # 'comm', 'if-tt', 'if-ff'
    consumed: frozenset[int]
    label: str | None = None
    detail: str = ""

    def describe(self) -> str:
        return self.detail or self.kind


def cmv_enabled(p: CmvProcess) -> list[tuple[CmvStep, CmvProcess]]:
    """All single-step successors under the lin rules with the components
    each step consumes."""
    if not isinstance(p, CRes):
        raise McmpError("reduction expects the outermost restriction")
    x, y = p.x, p.y
    comps = _components(p.body)
    out: list[tuple[CmvStep, CmvProcess]] = []
    for i, c in enumerate(comps):
        if isinstance(c, CCond) and isinstance(c.guard, BoolVal):
            kind = "if-tt" if c.guard.value else "if-ff"
            succ = comps[:i] + [c.then if c.guard.value else c.els] + comps[i + 1 :]
            out.append((CmvStep(kind, frozenset({i}), detail=f"{kind}@{i}"), CRes(x, y, _rebuild(succ))))
    for i, ci in enumerate(comps):
        if not isinstance(ci, CChoice):
            continue
        for j, cj in enumerate(comps):
            if i == j or not isinstance(cj, CChoice):
                continue
            if {ci.endpoint, cj.endpoint} != {x, y}:
                continue
            for bi in ci.branches:
                if bi.polarity != "!":
                    continue
                for bj in cj.branches:
                    if bj.polarity != "?" or bj.label != bi.label:
                        continue
                    cont_j = _subst_val(bj.cont, bi.payload, bj.var)
                    succ = list(comps)
                    succ[i] = bi.cont
                    succ[j] = cont_j
                    step = CmvStep(
                        "comm",
                        frozenset({i, j}),
                        label=bi.label,
                        detail=f"{ci.endpoint}->{cj.endpoint}:{bi.label}({render_value(bi.payload)})",
                    )
                    out.append((step, CRes(x, y, _rebuild(succ))))
    return out


def reduce_cmv(p: CmvProcess) -> list[CmvProcess]:
    return [succ for _, succ in cmv_enabled(p)]


_INACT_FORM = ("0",)
_SUCCESS_FORM = ("ok",)


def cmv_canon(p: CmvProcess) -> tuple:
    """Canonical form up to structural congruence (commutativity and
    associativity of |, garbage collection of 0) and alpha-conversion, made
    and kept as a process's is (see syntax._canon_walk)."""
    return syntax._canon_walk(p, _scope, _form, _fill)


def _form(q: CmvProcess, env: tuple, forms: list) -> tuple:
    """q's form from its subterms' forms, under the binders env.  A
    composition's form lists its parallel components' forms in sorted
    order: those of nested compositions spliced in, and inaction dropped."""
    kind = type(q)
    if kind is CChoice:
        items = []
        for b, form in zip(q.branches, forms):
            if b.polarity == "!":
                items.append(("!", b.label, _canon_value(b.payload, env), form))
            else:
                items.append(("?", b.label, form))
        return ("lin", q.endpoint, tuple(sorted(items)))
    if kind is Inact:
        return _INACT_FORM
    if kind is CSuccess:
        return _SUCCESS_FORM
    if kind is CCond:
        return ("if", _canon_value(q.guard, env), forms[0], forms[1])
    comps = []
    for form in forms:
        if form[0] == "par":
            comps += form[1]
        elif form != _INACT_FORM:
            comps.append(form)
    comps.sort()
    if kind is CRes:
        return ("res", tuple(sorted((q.x, q.y))), tuple(comps))
    if kind is CPar:
        return ("par", tuple(comps))
    raise TypeError(q)


def cmv_has_success(p: CmvProcess) -> bool:
    """Some parallel component of p, under its restriction, is a success."""
    return any(isinstance(c, CSuccess) for c in _components(p.body if isinstance(p, CRes) else p))


def explore_cmv(p: CmvProcess, max_states: int = lts.DEFAULT_MAX_STATES, max_depth: int | None = None) -> lts.Graph:
    """Every state reachable from p within the bounds (see lts.explore),
    identified by cmv_canon, in breadth-first order.  A subterm that several
    states share keeps its form, so the form is computed once."""

    def transitions(q: CmvProcess):
        return [(step, cmv_canon(succ), succ) for step, succ in cmv_enabled(q)]

    return lts.explore([(cmv_canon(p), p)], transitions, lambda q, _: q, max_states, max_depth)


# ---------------------------------------------------------------------------
# classification (simplified linear typing)


@_record(frozen=True)
class CmvEnd:
    pass


@_record(frozen=True, eq=False)
class CmvChoiceT:
    """Abstract endpoint protocol: branch signatures with continuations; the
    view (internal/external) is solved for separately.  nodes are the choice
    occurrences it stands for: one, or several alternative ones (in the arms
    of a conditional, or under different branches) merged because their
    protocols are equal.  Protocols compare by identity."""

    nodes: tuple[CChoice, ...]
    branches: tuple[tuple[str, str, str, "CmvType"], ...]  # (label, polarity, payload-type, cont)


CmvType = CmvEnd | CmvChoiceT

_END = CmvEnd()
_DUAL = {"!": "?", "?": "!"}


@_record(frozen=True, eq=False)
class _Views:
    """A solution for the protocols tx, of endpoint x, and ty: tx's
    occurrences are internal and ty's external when x_internal, and the
    other way round otherwise.  below maps each branch (label, polarity) of
    tx that ty answers dually to the solution for their continuations.  The
    solver does not reach the continuation of a branch without an answer,
    and every choice in it is internal."""

    tx: CmvType
    ty: CmvType
    x_internal: bool
    below: dict


class CmvTypeError(McmpError):
    pass


def _value_type(v: Value, bound: tuple | None) -> str:
    if isinstance(v, NatVal):
        return "nat"
    if isinstance(v, BoolVal):
        return "bool"
    if bound is not None and v.name not in bound:
        raise CmvTypeError(f"cannot type open payload {v.name!r}")
    return "bool"


def _bind(bound: tuple | None, var: str) -> tuple | None:
    return None if bound is None else bound + (var,)


def _merge_equal(kinds: list[CmvType], endpoint: str) -> CmvType:
    used = [k for k in kinds if not isinstance(k, CmvEnd)]
    if not used:
        return _END
    merged = used[0]
    for other in used[1:]:
        merged = _merge(merged, other)
        if merged is None:
            raise CmvTypeError(f"endpoint {endpoint} is used at different types in alternative branches")
    if len(used) != len(kinds):
        raise CmvTypeError(f"endpoint {endpoint} is dropped in some branches (not linear)")
    return merged


def _merge(a: CmvType, b: CmvType) -> CmvType | None:
    """The protocol a and b both are, standing for the occurrences of both
    at every node, so that each of them gets classified; None when they
    differ."""
    if isinstance(a, CmvEnd) and isinstance(b, CmvEnd):
        return a
    if not (isinstance(a, CmvChoiceT) and isinstance(b, CmvChoiceT)) or len(a.branches) != len(b.branches):
        return None
    branches = []
    for (la, pa, ua, ca), (lb, pb, ub, cb) in zip(a.branches, b.branches):
        cont = _merge(ca, cb) if (la, pa, ua) == (lb, pb, ub) else None
        if cont is None:
            return None
        branches.append((la, pa, ua, cont))
    return CmvChoiceT(a.nodes + b.nodes, tuple(branches))


def _leads(internal: CmvChoiceT, external: CmvChoiceT) -> bool:
    """Each branch of internal is answered dually on external: same label,
    dual polarity, and an output's payload type is the input's."""
    answers = {(l, pol): u for l, pol, u, _ in external.branches}
    for label, pol, payload, _ in internal.branches:
        answer = answers.get((label, _DUAL[pol]))
        if answer is None or (pol == "!" and payload != answer):
            return False
    return True


class _Translator:
    """Classification and translation of the states of one program, whose
    restriction binds x and y, memoised for the translator's life:
    protocols per (node, endpoint), solutions per pair of protocols, and
    translations per (node, peer, solution).  Each entry holds what its key
    names by id, so no such id is reused while the translator lives (see
    lts.memo).  A node names a choice occurrence, so a program is expected
    to hold each node at one place, as the parser and reduction make it."""

    def __init__(self, x: str, y: str):
        self.x, self.y = x, y
        self._protocols: dict = {}
        self._solutions: dict = {}
        self._targets: dict = {}

    def classify(self, p: CRes) -> _Views:
        """The solution for state p; raises CmvTypeError when no assignment
        of internal/external views makes the two endpoints' uses dual."""
        components = _components(p.body)
        tx = self._in_par(components, self.x, ())
        ty = self._in_par(components, self.y, ())
        views = self._solve(tx, ty)
        if views is None:
            raise CmvTypeError("no internal/external assignment makes the endpoints dual")
        return views

    def _protocol(self, p: CmvProcess, endpoint: str, bound: tuple | None) -> CmvType:
        """The abstract protocol endpoint plays in p; equal across
        conditional and choice branches (linear contexts).  bound lists the
        variables that the binders around p bind, all typed bool, or is None
        when they bind every variable free in p: then the protocol depends on
        p alone, and is memoised per node."""
        if bound is not None and all(v in bound for v in _free_of(p)):
            bound = None
        key = (id(p), endpoint)
        if bound is None:
            hit = self._protocols.get(key)
            if hit is not None:
                return hit[1]
        match p:
            case Inact() | CSuccess():
                t = _END
            case CChoice(ep, branches) if ep == endpoint:
                sigs = []
                for b in branches:
                    if b.polarity == "!":
                        payload = _value_type(b.payload, bound)
                        cont = self._protocol(b.cont, endpoint, bound)
                    else:
                        payload = "bool"
                        cont = self._protocol(b.cont, endpoint, _bind(bound, b.var))
                    sigs.append((b.label, b.polarity, payload, cont))
                merged: dict[tuple[str, str], tuple[str, CmvType]] = {}
                for label, pol, payload, cont in sigs:
                    if (label, pol) in merged:
                        old_payload, old_cont = merged[label, pol]
                        cont = _merge(old_cont, cont) if old_payload == payload else None
                        if cont is None:
                            raise CmvTypeError(
                                f"branches {label}{pol} on {endpoint} disagree on their types"
                            )
                    merged[label, pol] = (payload, cont)
                t = CmvChoiceT((p,), tuple(sorted((l, pol, pl, c) for (l, pol), (pl, c) in merged.items())))
            case CChoice(_, branches):
                kinds = []
                for b in branches:
                    kinds.append(self._protocol(b.cont, endpoint, bound if b.polarity == "!" else _bind(bound, b.var)))
                t = _merge_equal(kinds, endpoint)
            case CCond(_, then, els):
                t = _merge_equal([self._protocol(then, endpoint, bound), self._protocol(els, endpoint, bound)], endpoint)
            case CPar(l, r):
                t = self._in_par([l, r], endpoint, bound)
            case CRes():
                raise CmvTypeError("inner restrictions are outside the fragment")
            case _:
                raise TypeError(p)
        if bound is None:
            self._protocols[key] = (p, t)
        return t

    def _in_par(self, parts: list[CmvProcess], endpoint: str, bound: tuple | None) -> CmvType:
        """The protocol endpoint plays in parallel parts; a linear endpoint
        is used in one of them at most."""
        used = [q for q in parts if endpoint in _ends_of(q)]
        if len(used) > 1:
            raise CmvTypeError(f"endpoint {endpoint} is used in parallel components (not linear)")
        return self._protocol(used[0], endpoint, bound) if used else _END

    def _solve(self, tx: CmvType, ty: CmvType) -> _Views | None:
        """Views that make tx (endpoint x) and ty dual, or None: one side
        leads (see _leads) and the continuations of every dually answered
        pair of branches are dual in turn.  x leading is tried first, so
        ties resolve that way.  Memoised per pair."""
        key = (id(tx), id(ty))
        hit = self._solutions.get(key)
        if hit is not None:
            return hit[2]
        views = None
        if isinstance(tx, CmvEnd) or isinstance(ty, CmvEnd):
            if isinstance(tx, CmvEnd) and isinstance(ty, CmvEnd):
                views = _Views(tx, ty, True, {})
        else:
            answers = {(l, pol): c for l, pol, _, c in ty.branches}
            below = {}
            for label, pol, _, cont in tx.branches:
                answer = answers.get((label, _DUAL[pol]))
                if answer is not None:
                    below[label, pol] = self._solve(cont, answer)
                    if below[label, pol] is None:
                        break
            else:
                if _leads(tx, ty):
                    views = _Views(tx, ty, True, below)
                elif _leads(ty, tx):
                    views = _Views(tx, ty, False, below)
        self._solutions[key] = (tx, ty, views)
        return views

    def choice_views(self, p: CRes) -> dict[str, str]:
        """The view of every choice occurrence of state p, keyed by its path
        (see check_cmv)."""
        view_of: dict[int, str] = {}
        seen, todo = set(), [self.classify(p)]
        while todo:
            views = todo.pop()
            if id(views) in seen:
                continue
            seen.add(id(views))
            for t, internal in ((views.tx, views.x_internal), (views.ty, not views.x_internal)):
                if isinstance(t, CmvChoiceT):
                    view_of.update(dict.fromkeys(map(id, t.nodes), "internal" if internal else "external"))
            todo.extend(views.below.values())
        out: dict[str, str] = {}
        for position, c in enumerate(_components(p.body)):
            walk = [(str(position), c)]
            while walk:
                path, q = walk.pop()
                match q:
                    case CChoice(_, branches):
                        out[path] = view_of.get(id(q), "internal")
                        walk.extend((f"{path}.{k}", b.cont) for k, b in enumerate(branches))
                    case CPar(l, r):
                        walk += [(f"{path}.l", l), (f"{path}.r", r)]
                    case CCond(_, t, e):
                        walk += [(f"{path}.then", t), (f"{path}.else", e)]
        return out

    def session(self, p: CRes) -> Session:
        """The translation of state p.  A success component becomes a
        participant ok<n>, n counting the z binders and ok participants of
        the components before it."""
        views = self.classify(p)
        parts: list[tuple[str, Process]] = []
        serial = 0
        for comp in _components(p.body):
            if isinstance(comp, CSuccess):
                parts.append((f"ok{serial}", Success()))
                serial += 1
            else:
                name, proc, binders = self.component(comp, views)
                parts.append((name, proc))
                serial += binders
        return Session(tuple(parts))

    def component(self, comp: CmvProcess, views: _Views) -> tuple[str, Process, int]:
        """The participant that comp, a component of a state other than a
        success, becomes under the state's solution views: its name, its
        process and the number of z binders in the process.  A component
        holding both endpoints is deadlocked and becomes inaction."""
        x, y = self.x, self.y
        match comp:
            case CChoice(endpoint, _):
                if endpoint not in (x, y):
                    raise McmpError(f"free endpoint {endpoint!r} is not bound by the restriction")
                if {x, y} <= _ends_of(comp):
                    return endpoint, Nil(), 0
            case CCond():
                used = sorted(_ends_of(comp) & {x, y})
                if len(used) != 1:
                    raise McmpError("conditional components must use exactly one endpoint")
                endpoint = used[0]
            case _:
                raise McmpError(f"cannot place component {render_cmv(comp)!r} under a participant")
        return (endpoint, *self._encode(comp, y if endpoint == x else x, views))

    def _encode(self, p: CmvProcess, peer: str, views: _Views | None) -> tuple[Process, int]:
        """The translation of p, a term of the component of the endpoint
        other than peer, and the number of z binders in it.  views is the
        solution that reaches the choices at the top of p, or None when the
        solver reaches none of them: they are then internal, as is every
        choice below them.  Internal choices announce on l.o / l.i labels,
        external ones answer dually.  Memoised per (node, peer, views)."""
        key = (id(p), peer, id(views))
        hit = self._targets.get(key)
        if hit is not None:
            return hit[2], hit[3]
        binders = 0
        match p:
            case Inact():
                out = Nil()
            case CSuccess():
                out = Success()
            case CCond(g, t, e):
                then, n_then = self._encode(t, peer, views)
                els, n_els = self._encode(e, peer, views)
                out, binders = syntax.Cond(g, then, els), n_then + n_els
            case CChoice(endpoint, branches):
                # a choice on another channel is internal and leaves the
                # endpoint's protocol, and so its solution, to its branches
                own = endpoint in (self.x, self.y)
                internal = views is None or not own or views.x_internal == (endpoint == self.x)
                new: list[Branch] = []
                for b in branches:
                    below = views
                    if own and views is not None:
                        below = views.below.get((b.label, b.polarity if endpoint == self.x else _DUAL[b.polarity]))
                    cont, n = self._encode(b.cont, peer, below)
                    binders += n
                    if internal and b.polarity == "!":
                        new.append(Branch(Prefix(peer, "!", f"{b.label}.o", payload=b.payload), cont))
                    elif internal:
                        inner = Choice((Branch(Prefix(peer, "?", b.label, var=b.var), cont),))
                        new.append(Branch(Prefix(peer, "!", f"{b.label}.i", payload=TT), inner))
                    elif b.polarity == "!":
                        inner = Choice((Branch(Prefix(peer, "!", b.label, payload=b.payload), cont),))
                        new.append(Branch(Prefix(peer, "?", f"{b.label}.i", var=_unused_z(b)), inner))
                        binders += 1
                    else:
                        new.append(Branch(Prefix(peer, "?", f"{b.label}.o", var=b.var), cont))
                out = Choice(tuple(new))
            case CPar():
                raise McmpError("parallel composition under a prefix is outside the fragment")
            case CRes():
                raise McmpError("inner restrictions are outside the fragment")
            case _:
                raise TypeError(p)
        self._targets[key] = (p, views, out, binders)
        return out, binders


def _unused_z(b: CBranch) -> str:
    """The binder of the l.i announcement that external output branch b
    answers, whose value nobody reads: the smallest z<n> not free in b."""
    return syntax._fresh("z", _with_value(_free_of(b.cont), b.payload))


def check_cmv(p: CmvProcess) -> dict[str, str]:
    """Classify every choice occurrence as internal or external such that the
    two endpoints' uses are dual; raises CmvTypeError otherwise.  The solver
    tries the first endpoint as internal first, so ties resolve that way.
    An occurrence is keyed by its path in the program: the position of its
    parallel component, then .k under branch k, .then/.else in the arms of
    a conditional and .l/.r in a parallel composition."""
    if not isinstance(p, CRes):
        raise CmvTypeError("expected a single outermost restriction")
    return _Translator(p.x, p.y).choice_views(p)


# ---------------------------------------------------------------------------
# encoding into mixed-choice binary sessions


def encode_lcmv_to_mcbs(p: CmvProcess) -> Session:
    """Drop the restriction, turn the endpoints into participants, and
    translate choices per their internal/external view (see
    _Translator._encode).  A component holding both endpoints is deadlocked
    and becomes inaction."""
    if not isinstance(p, CRes):
        raise McmpError("expected a single outermost restriction")
    return _Translator(p.x, p.y).session(p)


def verify_correspondence(
    p: CmvProcess,
    max_states: int = lts.DEFAULT_MAX_STATES,
    max_depth: int = lts.DEFAULT_MAX_DEPTH,
) -> encode.CorrespondenceReport:
    """The good-encoding harness for the lcmv translation: the source graph
    is the CMV reduction graph within the bounds, and one translator
    translates every state, so a subterm that several states share is
    classified and translated once."""
    # imported on first use, so that a process that uses only the front end
    # and the reduction rules does not load the encoding machinery
    from . import encode

    if not isinstance(p, CRes):
        raise McmpError("expected a single outermost restriction")
    translator = _Translator(p.x, p.y)

    def distributability(target_root: Session) -> list[str]:
        # per-component compositionality: translating each parallel
        # component on its own (same classification) reproduces its slice of
        # the target
        views = translator.classify(p)
        by_name = dict(target_root.parts)
        failing = []
        for comp in _components(p.body):
            if isinstance(comp, CSuccess):
                continue  # success components get a generated participant name
            name, proc, _ = translator.component(comp, views)
            if name not in by_name or not syntax.alpha_equal(proc, by_name[name]):
                failing.append(name)
        return failing

    return encode._correspondence(
        encode.ENCODINGS["lcmv-mcbs"],
        explore_cmv(p, max_states, max_depth),
        translator.session,
        cmv_has_success,
        distributability,
        max_states,
        max_depth,
    )
