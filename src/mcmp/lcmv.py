"""Linear mixed-choice binary sessions over two endpoints: parsing, the lin
reduction rules, a duality-based classifier assigning every choice an
internal or external view, and the translation into mixed-choice binary
multiparty sessions.

Only the linear single-session fragment is supported: one outermost
restriction, lin choices, value payloads.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator
from dataclasses import dataclass

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
    render_value,
)


@dataclass(frozen=True)
class Inact:
    pass


@dataclass(frozen=True)
class CSuccess:
    pass


@dataclass(frozen=True)
class CPar:
    left: "CmvProcess"
    right: "CmvProcess"


@dataclass(frozen=True)
class CRes:
    x: str
    y: str
    body: "CmvProcess"


@dataclass(frozen=True)
class CBranch:
    label: str
    polarity: str  # '!' or '?'
    payload: Value | None = None
    var: str | None = None
    cont: "CmvProcess" = None  # type: ignore[assignment]


@dataclass(frozen=True)
class CChoice:
    endpoint: str
    branches: tuple[CBranch, ...]

    def __post_init__(self):
        assert self.branches


@dataclass(frozen=True)
class CCond:
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


def _cmv_tokenize(text: str):
    toks = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = _CMV_TOKENS.match(text, pos)
        if not m:
            raise syntax.ParseError(f"unexpected character {text[pos]!r}", line, pos - bol + 1)
        if m.lastgroup in ("ws", "comment"):
            chunk = m.group()
            line += chunk.count("\n")
            if "\n" in chunk:
                bol = m.start() + chunk.rfind("\n") + 1
        else:
            toks.append((m.lastgroup if m.lastgroup != "punct" else m.group(), m.group(), line, pos - bol + 1))
        pos = m.end()
    toks.append(("eof", "", line, len(text) - bol + 1))
    return toks


class _CmvParser:
    def __init__(self, text: str):
        self.toks = _cmv_tokenize(text)
        self.i = 0

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, text=None):
        t = self.next()
        if t[0] != kind or (text is not None and t[1] != text):
            raise syntax.ParseError(f"expected {text or kind}, found {t[1]!r}", t[2], t[3])
        return t

    def parse_program(self) -> CmvProcess:
        self.expect("(")
        t = self.expect("ident")
        if t[1] != "new":
            raise syntax.ParseError("program must start with (new x y)", t[2], t[3])
        x = self.expect("ident")[1]
        y = self.expect("ident")[1]
        if x == y:
            raise syntax.ParseError("restriction binds two distinct endpoints", t[2], t[3])
        self.expect(")")
        self.expect("(")
        body = self.parse_par()
        self.expect(")")
        if self.peek()[0] != "eof":
            t = self.peek()
            raise syntax.ParseError(f"unexpected trailing input {t[1]!r}", t[2], t[3])
        if any(isinstance(q, CRes) for _, q in _subterms(body)):
            t = self.peek()
            raise syntax.ParseError("only a single outermost restriction is supported", t[2], t[3])
        return CRes(x, y, body)

    def parse_par(self) -> CmvProcess:
        left = self.parse_single()
        while self.peek()[0] == "|":
            self.next()
            left = CPar(left, self.parse_single())
        return left

    def parse_single(self) -> CmvProcess:
        t = self.peek()
        if t[0] == "nat" and t[1] == "0":
            self.next()
            return Inact()
        if t[0] == "ident" and t[1] == "ok":
            self.next()
            return CSuccess()
        if t[0] == "ident" and t[1] == "if":
            self.next()
            guard = self.parse_value()
            self.expect("ident", "then")
            then = self.parse_single()
            self.expect("ident", "else")
            els = self.parse_single()
            return CCond(guard, then, els)
        if t[0] == "ident" and t[1] == "lin":
            self.next()
            endpoint = self.expect("ident")[1]
            self.expect("(")
            branches = [self.parse_branch()]
            while self.peek()[0] == "+":
                self.next()
                branches.append(self.parse_branch())
            self.expect(")")
            return CChoice(endpoint, tuple(branches))
        if t[0] == "ident" and t[1] == "un":
            raise syntax.ParseError("unrestricted choices are outside the linear fragment", t[2], t[3])
        if t[0] == "(":
            self.next()
            inner = self.parse_par()
            self.expect(")")
            return inner
        raise syntax.ParseError(f"expected a process, found {t[1]!r}", t[2], t[3])

    def parse_branch(self) -> CBranch:
        label = self.expect("ident")[1]
        pol = self.next()
        if pol[0] == "!":
            payload = self.parse_value()
            self.expect(".")
            return CBranch(label, "!", payload=payload, cont=self.parse_single())
        if pol[0] == "?":
            var = self.expect("ident")[1]
            self.expect(".")
            return CBranch(label, "?", var=var, cont=self.parse_single())
        raise syntax.ParseError("expected ! or ?", pol[2], pol[3])

    def parse_value(self) -> Value:
        t = self.next()
        if t[0] == "nat":
            return NatVal(int(t[1]))
        if t[0] == "ident" and t[1] == "tt":
            return TT
        if t[0] == "ident" and t[1] == "ff":
            return BoolVal(False)
        if t[0] == "ident":
            return Var(t[1])
        raise syntax.ParseError(f"expected a value, found {t[1]!r}", t[2], t[3])


def _subterms(p: CmvProcess, path: str = "") -> list[tuple[str, CmvProcess]]:
    """p and every term under it, each with its path below path (see
    check_cmv); the walk does not enter restrictions."""
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


def parse_cmv(text: str) -> CmvProcess:
    return _CmvParser(text).parse_program()


def render_cmv(p: CmvProcess) -> str:
    match p:
        case CRes(x, y, body):
            return f"(new {x} {y})({_render_par(body)})"
        case _:
            return _render_par(p)


def _render_par(p: CmvProcess) -> str:
    match p:
        case CPar(l, r):
            return f"{_render_par(l)} | {_render_par(r)}"
        case _:
            return _render_single(p)


def _render_single(p: CmvProcess) -> str:
    match p:
        case Inact():
            return "0"
        case CSuccess():
            return "ok"
        case CCond(g, t, e):
            return f"if {render_value(g)} then {_render_single(t)} else {_render_single(e)}"
        case CChoice(endpoint, branches):
            parts = []
            for b in branches:
                if b.polarity == "!":
                    parts.append(f"{b.label}!{render_value(b.payload)}.{_render_cont(b.cont)}")
                else:
                    parts.append(f"{b.label}?{b.var}.{_render_cont(b.cont)}")
            return f"lin {endpoint} ({' + '.join(parts)})"
        case CPar():
            return f"({_render_par(p)})"
    raise TypeError(p)


def _render_cont(p: CmvProcess) -> str:
    if isinstance(p, CPar):
        return f"({_render_par(p)})"
    return _render_single(p)


# ---------------------------------------------------------------------------
# reduction


def _components(p: CmvProcess) -> list[CmvProcess]:
    match p:
        case CPar(l, r):
            return _components(l) + _components(r)
        case Inact():
            return []
        case _:
            return [p]


def _rebuild(components: list[CmvProcess]) -> CmvProcess:
    live = [c for c in components if not isinstance(c, Inact)]
    if not live:
        return Inact()
    out = live[0]
    for c in live[1:]:
        out = CPar(out, c)
    return out


def _subst_val(p: CmvProcess, value: Value, var: str) -> CmvProcess:
    def sv(v: Value) -> Value:
        return value if isinstance(v, Var) and v.name == var else v

    match p:
        case CChoice(endpoint, branches):
            new = []
            for b in branches:
                if b.polarity == "!":
                    new.append(CBranch(b.label, "!", payload=sv(b.payload), cont=_subst_val(b.cont, value, var)))
                elif b.var == var:
                    new.append(b)
                else:
                    new.append(CBranch(b.label, "?", var=b.var, cont=_subst_val(b.cont, value, var)))
            return CChoice(endpoint, tuple(new))
        case CCond(g, t, e):
            return CCond(sv(g), _subst_val(t, value, var), _subst_val(e, value, var))
        case CPar(l, r):
            return CPar(_subst_val(l, value, var), _subst_val(r, value, var))
        case _:
            return p


@dataclass(frozen=True)
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


def cmv_canon(p: CmvProcess) -> tuple:
    """Canonical form up to structural congruence (commutativity and
    associativity of |, garbage collection of 0) and alpha-conversion."""

    def walk(q: CmvProcess, env: tuple = ()) -> tuple:
        def cval(v: Value):
            if isinstance(v, Var):
                for n, k in reversed(env):
                    if n == v.name:
                        return ("b", k)
                return ("f", v.name)
            if isinstance(v, NatVal):
                return ("n", v.value)
            return ("t", v.value)

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
            case CPar():
                pass
            case CRes(x, y, body):
                comps = tuple(sorted(walk(c, env) for c in _components(body)))
                return ("res", tuple(sorted((x, y))), comps)
        comps = tuple(sorted(walk(c, env) for c in _components(q)))
        return ("par", comps)

    return walk(p)


def cmv_has_success(p: CmvProcess) -> bool:
    match p:
        case CSuccess():
            return True
        case CPar(l, r):
            return cmv_has_success(l) or cmv_has_success(r)
        case CRes(_, _, body):
            return cmv_has_success(body)
        case _:
            return False


def explore_cmv(p: CmvProcess, max_states: int = 10000) -> lts.Graph:
    """Every state reachable from p, identified by cmv_canon, in
    breadth-first order."""

    def transitions(q: CmvProcess, _):
        return [(step, cmv_canon(succ), succ) for step, succ in cmv_enabled(q)]

    return lts.explore([(cmv_canon(p), p)], transitions, lambda q, _: (q, None), max_states)


# ---------------------------------------------------------------------------
# classification (simplified linear typing)


@dataclass(frozen=True)
class CmvEnd:
    pass


@dataclass(frozen=True)
class CmvChoiceT:
    """Abstract endpoint protocol: branch signatures with continuations; the
    view (internal/external) is solved for separately.  paths are the choice
    occurrences it stands for: one, or several alternative ones (in the arms
    of a conditional, or under different branches) merged because their
    protocols are equal."""

    paths: tuple[str, ...]
    branches: tuple[tuple[str, str, str, "CmvType"], ...]  # (label, polarity, payload-type, cont)


CmvType = CmvEnd | CmvChoiceT


class CmvTypeError(McmpError):
    pass


def _endpoints_of(p: CmvProcess, endpoints: set[str]) -> set[str]:
    return {q.endpoint for _, q in _subterms(p) if isinstance(q, CChoice) and q.endpoint in endpoints}


def _value_type(v: Value, env: dict[str, str]) -> str:
    if isinstance(v, NatVal):
        return "nat"
    if isinstance(v, BoolVal):
        return "bool"
    t = env.get(v.name)
    if t is None:
        raise CmvTypeError(f"cannot type open payload {v.name!r}")
    return t


def _protocol(p: CmvProcess, endpoint: str, env: dict[str, str], path: str) -> CmvType:
    """The abstract protocol endpoint plays in p, found at path in the
    program; equal across conditional and choice branches (linear
    contexts)."""
    match p:
        case Inact() | CSuccess():
            return CmvEnd()
        case CChoice(ep, branches):
            if ep == endpoint:
                sigs = []
                for k, b in enumerate(branches):
                    if b.polarity == "!":
                        payload = _value_type(b.payload, env)
                        cont = _protocol(b.cont, endpoint, env, f"{path}.{k}")
                    else:
                        payload = "bool"
                        cont = _protocol(b.cont, endpoint, dict(env, **{b.var: "bool"}), f"{path}.{k}")
                    sigs.append((b.label, b.polarity, payload, cont))
                merged: dict[tuple[str, str], tuple[str, CmvType]] = {}
                for label, pol, payload, cont in sigs:
                    key = (label, pol)
                    if key in merged:
                        old_payload, old_cont = merged[key]
                        cont = _merge(old_cont, cont) if old_payload == payload else None
                        if cont is None:
                            raise CmvTypeError(
                                f"branches {label}{pol} on {endpoint} disagree on their types"
                            )
                    merged[key] = (payload, cont)
                return CmvChoiceT((path,), tuple(sorted((l, pol, pl, c) for (l, pol), (pl, c) in merged.items())))
            kinds = []
            for k, b in enumerate(branches):
                inner_env = dict(env, **{b.var: "bool"}) if b.polarity == "?" else env
                kinds.append(_protocol(b.cont, endpoint, inner_env, f"{path}.{k}"))
            return _merge_equal(kinds, endpoint)
        case CCond(_, t, e):
            arms = [_protocol(t, endpoint, env, f"{path}.then"), _protocol(e, endpoint, env, f"{path}.else")]
            return _merge_equal(arms, endpoint)
        case CPar(l, r):
            return _protocol_in_par([(f"{path}.l", l), (f"{path}.r", r)], endpoint, env)
        case CRes():
            raise CmvTypeError("inner restrictions are outside the fragment")
    raise TypeError(p)


def _protocol_in_par(parts: list[tuple[str, CmvProcess]], endpoint: str, env: dict[str, str]) -> CmvType:
    """The protocol endpoint plays in parallel parts, given with their
    paths; a linear endpoint is used in one of them at most."""
    used = [(path, q) for path, q in parts if _endpoints_of(q, {endpoint})]
    if len(used) > 1:
        raise CmvTypeError(f"endpoint {endpoint} is used in parallel components (not linear)")
    return _protocol(used[0][1], endpoint, env, used[0][0]) if used else CmvEnd()


def _merge_equal(kinds: list[CmvType], endpoint: str) -> CmvType:
    used = [k for k in kinds if not isinstance(k, CmvEnd)]
    if not used:
        return CmvEnd()
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
    return CmvChoiceT(a.paths + b.paths, tuple(branches))


def _dual_assign(tx: CmvType, ty: CmvType, assign: dict[str, str], x_internal: bool) -> bool:
    """Assign internal/external views so that the internal side's branches are
    matched dually (same label, dual polarity, same payload) on the external
    side, recursing along matched continuations."""
    if isinstance(tx, CmvEnd) and isinstance(ty, CmvEnd):
        return True
    if isinstance(tx, CmvEnd) or isinstance(ty, CmvEnd):
        return False
    internal, external = (tx, ty) if x_internal else (ty, tx)
    ext = {(l, p): (u, c) for l, p, u, c in external.branches}
    for label, pol, payload, cont in internal.branches:
        dual_pol = "?" if pol == "!" else "!"
        hit = ext.get((label, dual_pol))
        if hit is None:
            return False
        ext_payload, ext_cont = hit
        if pol == "!" and payload != ext_payload:
            return False
        nxt_int, nxt_ext = cont, ext_cont
        a, b = (nxt_int, nxt_ext) if x_internal else (nxt_ext, nxt_int)
        if not _dual_or_backtrack(a, b, assign):
            return False
    assign.update(dict.fromkeys(internal.paths, "internal"))
    assign.update(dict.fromkeys(external.paths, "external"))
    return True


def _dual_or_backtrack(tx: CmvType, ty: CmvType, assign: dict[str, str]) -> bool:
    for x_internal in (True, False):
        trial = dict(assign)
        if _dual_assign(tx, ty, trial, x_internal):
            assign.clear()
            assign.update(trial)
            return True
    return False


def check_cmv(p: CmvProcess) -> dict[str, str]:
    """Classify every choice occurrence as internal or external such that the
    two endpoints' uses are dual; raises CmvTypeError otherwise.  The solver
    tries the first endpoint as internal first, so ties resolve that way.
    An occurrence is keyed by its path in the program: the position of its
    parallel component, then .k under branch k, .then/.else in the arms of
    a conditional and .l/.r in a parallel composition."""
    if not isinstance(p, CRes):
        raise CmvTypeError("expected a single outermost restriction")
    components = [(str(k), c) for k, c in enumerate(_components(p.body))]
    tx = _protocol_in_par(components, p.x, {})
    ty = _protocol_in_par(components, p.y, {})
    assign: dict[str, str] = {}
    if not _dual_or_backtrack(tx, ty, assign):
        raise CmvTypeError("no internal/external assignment makes the endpoints dual")
    for path, c in components:
        for sub, q in _subterms(c, path):
            if isinstance(q, CChoice):
                assign.setdefault(sub, "internal")
    return assign


# ---------------------------------------------------------------------------
# encoding into mixed-choice binary sessions


def encode_lcmv_to_mcbs(p: CmvProcess, classes: dict[str, str] | None = None) -> Session:
    """Drop the restriction, turn the endpoints into participants, and
    translate choices per their internal/external view: internal choices
    announce on l.o / l.i labels, external choices answer dually.  A
    component holding both endpoints is deadlocked and becomes inaction."""
    if not isinstance(p, CRes):
        raise McmpError("expected a single outermost restriction")
    if classes is None:
        classes = check_cmv(p)
    x, y = p.x, p.y
    # numbers the ok<n> participants and z<n> binders of this translation
    serial = itertools.count()
    parts: list[tuple[str, Process]] = []
    for position, comp in enumerate(_components(p.body)):
        parts.extend(_encode_component(comp, x, y, classes, serial, position))
    return Session(tuple(parts))


def _encode_component(
    comp: CmvProcess, x: str, y: str, classes: dict[str, str], serial: Iterator[int], position: int
) -> list[tuple[str, Process]]:
    """The participants of the component at position in the program."""
    match comp:
        case Inact():
            return []
        case CSuccess():
            return [(f"ok{next(serial)}", Success())]
        case CChoice(endpoint, _):
            if endpoint not in (x, y):
                raise McmpError(f"free endpoint {endpoint!r} is not bound by the restriction")
            used = _endpoints_of(comp, {x, y})
            if used == {x, y}:
                return [(endpoint, Nil())]
            peer = y if endpoint == x else x
            return [(endpoint, _encode_proc(comp, peer, classes, serial, str(position)))]
        case CCond():
            used = sorted(_endpoints_of(comp, {x, y}))
            if len(used) != 1:
                raise McmpError("conditional components must use exactly one endpoint")
            endpoint = used[0]
            peer = y if endpoint == x else x
            return [(endpoint, _encode_proc(comp, peer, classes, serial, str(position)))]
        case _:
            raise McmpError(f"cannot place component {render_cmv(comp)!r} under a participant")


def _encode_proc(p: CmvProcess, peer: str, classes: dict[str, str], serial: Iterator[int], path: str) -> Process:
    def enc(q: CmvProcess, step: int | str) -> Process:
        return _encode_proc(q, peer, classes, serial, f"{path}.{step}")

    match p:
        case Inact():
            return Nil()
        case CSuccess():
            return Success()
        case CCond(g, t, e):
            return syntax.Cond(g, enc(t, "then"), enc(e, "else"))
        case CChoice(_, branches):
            view = classes.get(path, "internal")
            out: list[Branch] = []
            if view == "internal":
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
            raise McmpError("parallel composition under a prefix is outside the fragment")
        case CRes():
            raise McmpError("inner restrictions are outside the fragment")
    raise TypeError(p)
