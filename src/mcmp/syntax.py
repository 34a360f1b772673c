"""Abstract syntax, parsing and printing for mixed-choice multiparty sessions.

Participants and labels are plain strings.  Terms are plain values: equal
terms are interchangeable wherever they occur, and nothing in them depends
on what else the process built or parsed.  A process node keeps two facts
about itself once they are first asked for, its free names and its
canonical form; neither takes part in ==, hash or repr.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


RESERVED_LABELS = ("enc_o", "enc_i", "reset")


def is_reserved_label(label: str) -> bool:
    return label in RESERVED_LABELS or label.endswith(".o") or label.endswith(".i")


# ---------------------------------------------------------------------------
# values and prefixes


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class NatVal:
    value: int


@dataclass(frozen=True, slots=True)
class BoolVal:
    value: bool


Value = Var | NatVal | BoolVal

TT = BoolVal(True)
FF = BoolVal(False)


@dataclass(frozen=True, slots=True)
class Prefix:
    """p!l<v> when polarity == '!' (payload set), p?l(x) when '?' (var set)."""

    target: str
    polarity: str  # '!' or '?'
    label: str
    payload: Value | None = None
    var: str | None = None

    def __post_init__(self):
        if self.polarity == "!":
            assert self.payload is not None and self.var is None
        else:
            assert self.polarity == "?" and self.var is not None and self.payload is None


# ---------------------------------------------------------------------------
# processes


class _Term:
    """Base of the nodes of the three term languages: processes, local types
    (mcmp.ltypes) and .cmv programs (mcmp.lcmv).  _free holds the node's
    free names and _key its canonical form or None (see _canon_walk).  Both
    stay unset until the language's free-name walk first meets the node, so
    building a term costs nothing more.  The base declares the weakref
    slot, which Python 3.10 dataclasses cannot add."""

    __slots__ = ("_free", "_key", "__weakref__")


@dataclass(frozen=True, slots=True)
class Nil(_Term):
    pass


@dataclass(frozen=True, slots=True)
class Success(_Term):
    pass


@dataclass(frozen=True, slots=True)
class ProcVar(_Term):
    name: str


@dataclass(frozen=True, slots=True)
class Rec(_Term):
    var: str
    body: "Process"


@dataclass(frozen=True, slots=True)
class Branch:
    prefix: Prefix
    cont: "Process"


@dataclass(frozen=True, slots=True)
class Choice(_Term):
    branches: tuple[Branch, ...]

    def __post_init__(self):
        assert self.branches


@dataclass(frozen=True, slots=True)
class Cond(_Term):
    guard: Value
    then: "Process"
    els: "Process"


Process = Nil | Success | ProcVar | Rec | Choice | Cond


@dataclass(frozen=True, slots=True)
class Session:
    """Finite map from participants to processes; order of parts is the
    parse order and doubles as a left-nested parallel composition tree."""

    parts: tuple[tuple[str, Process], ...]

    def __post_init__(self):
        names = [p for p, _ in self.parts]
        assert len(names) == len(set(names))

    def process_of(self, name: str) -> Process:
        for p, proc in self.parts:
            if p == name:
                return proc
        raise KeyError(name)

    def participants(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.parts)

    def with_parts(self, new: dict[str, Process]) -> "Session":
        """This session with the processes of the participants in new replaced."""
        return Session(tuple((p, new.get(p, q)) for p, q in self.parts))


class McmpError(Exception):
    pass


class ParseError(McmpError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# helpers over processes


def choices(proc: Process) -> list[Choice]:
    """Every choice occurrence in proc, outermost first."""
    return [p for p in _nodes(proc, _scope) if isinstance(p, Choice)]


def mentioned_participants(proc: Process) -> set[str]:
    return {b.prefix.target for c in choices(proc) for b in c.branches}


def session_participants(m: Session) -> set[str]:
    """Roles of the session plus every participant mentioned in a prefix."""
    out = set(m.participants())
    for _, proc in m.parts:
        out |= mentioned_participants(proc)
    return out


# ---------------------------------------------------------------------------
# free names

_CLOSED: frozenset = frozenset()


def free_names(proc: Process) -> frozenset:
    """The names free in proc: a value variable as itself, a process
    variable X as ("X", X).  Each node's set is computed once, children
    first and without recursion (see _fill_slots); a node with the same
    names as a child shares the child's set, and closed nodes share one
    empty set."""
    return _free_of(proc, _scope, _fill_free)


def _free_of(p, scope, fill) -> frozenset:
    """p's _free slot, in the language that scope describes, after filling
    the unset slots at and below p with fill (see _fill_slots)."""
    try:
        return p._free
    except AttributeError:
        _fill_slots(p, scope, fill)
        return p._free


def _fill_slots(p, scope, fill) -> None:
    """Call fill on p and on every node below it whose _free slot is unset,
    children first (scope(node) lists a node's) and without recursion, and
    keep no form for it yet.  fill sets _free, so a node met twice in a
    shared term is filled once."""
    todo = [p]
    while todo:
        q = todo[-1]
        if hasattr(q, "_free"):  # met twice in a shared term
            todo.pop()
            continue
        missing = [k for k, _ in scope(q) if not hasattr(k, "_free")]
        if missing:
            todo += missing
            continue
        todo.pop()
        fill(q)
        object.__setattr__(q, "_key", None)


def _rebuild(p, scope, node, memo: dict):
    """node(p, subs), where subs holds the results for p's subterms in the
    order scope(p) lists them, each computed the same way: children first
    and without recursion.  memo maps id(q) to (q, q's result), so a subterm
    met twice, in p or in an earlier call with the same memo, is done once,
    and no id in it is reused while memo lives."""
    todo = [p]
    while todo:
        q = todo[-1]
        if id(q) in memo:  # met twice in a shared term
            todo.pop()
            continue
        missing = [k for k, _ in scope(q) if id(k) not in memo]
        if missing:
            todo += missing
            continue
        todo.pop()
        memo[id(q)] = (q, node(q, [memo[id(k)][1] for k, _ in scope(q)]))
    return memo[id(p)][1]


def _nodes(p, scope) -> list:
    """p and every node below it (scope(node) lists a node's subterms), in
    preorder and without recursion."""
    out, todo = [], [p]
    while todo:
        q = todo.pop()
        out.append(q)
        for k, _ in reversed(scope(q)):
            todo.append(k)
    return out


def _scope(p: Process) -> list:
    """p's subterms, each with the binder it sits under or None: an input's
    variable, or ("X", X) for the body of rec X."""
    kind = type(p)
    if kind is Choice:
        return [(b.cont, None if b.prefix.polarity == "!" else b.prefix.var) for b in p.branches]
    if kind is Cond:
        return [(p.then, None), (p.els, None)]
    if kind is Rec:
        return [(p.body, ("X", p.var))]
    return []


def _free_below(q, scope) -> frozenset:
    """The names free in q's subterms, each outside the binder over it."""
    free = _CLOSED
    for sub, binder in scope(q):
        free = _union(free, _without(sub._free, binder))
    return free


def _fill_free(p: Process) -> None:
    """Set p's free names from the sets of its subterms."""
    free = _free_below(p, _scope)
    match p:
        case ProcVar(name):
            free = frozenset((("X", name),))
        case Cond(g, _, _):
            free = _with_value(free, g)
        case Choice(branches):
            for b in branches:
                if b.prefix.polarity == "!":
                    free = _with_value(free, b.prefix.payload)
    object.__setattr__(p, "_free", free)


def _union(a: frozenset, b: frozenset) -> frozenset:
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _without(names: frozenset, name) -> frozenset:
    if name not in names:
        return names
    return names - {name} or _CLOSED


def _with_value(names: frozenset, v: Value) -> frozenset:
    if not isinstance(v, Var) or v.name in names:
        return names
    return names | {v.name}


# ---------------------------------------------------------------------------
# substitution


def substitute_value(proc: Process, value: Value, var: str) -> Process:
    """Capture-avoiding substitution proc[value/var] (see _substitute).
    Every subterm in which var is not free is kept as the same object."""
    if var not in free_names(proc):
        return proc
    avoid = (value.name,) if isinstance(value, Var) else ()
    return _substitute(proc, var, value, _scope, _rule, free_names, avoid)


def substitute_proc(proc: Process, repl: Process, var: str) -> Process:
    """proc[repl/var] on process variables.  Every subterm in which var is
    not free is kept as the same object."""
    if ("X", var) not in free_names(proc):
        return proc
    return _substitute(proc, ("X", var), repl, _scope, _rule, free_names, ())


def _rule(p: Process, subs: list, binders: list, name, repl) -> Process:
    """p with the subterms subs under binders, and with repl for name where
    name stands in p itself, as a process variable or a value."""
    kind = type(p)
    if kind is Choice:
        new = []
        for b, cont, binder in zip(p.branches, subs, binders):
            pre = b.prefix
            if pre.polarity == "!":
                if type(pre.payload) is Var and pre.payload.name == name:
                    pre = Prefix(pre.target, "!", pre.label, payload=repl)
            elif binder != pre.var:
                pre = Prefix(pre.target, "?", pre.label, var=binder)
            new.append(b if pre is b.prefix and cont is b.cont else Branch(pre, cont))
        return Choice(tuple(new))
    if kind is Cond:
        return Cond(repl if type(p.guard) is Var and p.guard.name == name else p.guard, subs[0], subs[1])
    if kind is Rec:
        return Rec(p.var, subs[0])
    return repl if kind is ProcVar and ("X", p.name) == name else p


def _substitute(p, name, repl, scope, rule, free, avoid):
    """p with repl for the free occurrences of name, in the language that
    scope and rule describe: scope(node) lists a node's subterms, each with
    the binder it sits under or None, and rule(node, subs, binders, name,
    repl) builds a node from its new subterms subs, which sit under
    binders, with repl for name where name stands in the node itself.  The
    walk keeps as the same object a subterm under a binder named name, and
    one whose _free slot is set and lacks name.

    A binder in avoid (the names free in repl) that sits over an occurrence
    of name is renamed to <binder>_<n>, for the smallest n that makes a name
    not free below it (free(node) gives those names and fills the slots), so
    the same term always gets the same name.  The walk always enters p, so
    a caller whose rule rebuilds every node it is given first checks that
    name is free in p.  Computed children first and without recursion."""
    # q is the node being rebuilt from the new subterms subs made so far,
    # and items iterates over the rest of its subterms; stack holds the
    # nodes above it, and a renamed subterm's frame (None, name, repl,
    # avoid) says which substitution to make in it next
    q, items, subs, binders = p, iter(scope(p)), [], []
    stack = []
    while True:
        for sub, binder in items:
            names = getattr(sub, "_free", None)
            if binder == name or (names is not None and name not in names):
                subs.append(sub)
                binders.append(binder)
                continue
            stack.append((q, items, subs, binders))
            if binder in avoid:
                taken = free(sub)
                binders.append(_fresh(f"{binder}_", taken))
                if binder in taken:
                    stack.append((None, name, repl, avoid))
                    name, repl, avoid = binder, Var(binders[-1]), (binders[-1],)
            else:
                binders.append(binder)
            q, items, subs, binders = sub, iter(scope(sub)), [], []
            break
        else:
            new = rule(q, subs, binders, name, repl)
            if not stack:
                return new
            frame = stack.pop()
            if frame[0] is None:  # new is a renamed subterm: now substitute into it
                _, name, repl, avoid = frame
                free(new)
                q, items, subs, binders = new, iter(scope(new)), [], []
            else:
                q, items, subs, binders = frame
                subs.append(new)


def _fresh(stem: str, taken) -> str:
    """stem<n> for the smallest n that makes a name not in taken."""
    n = 0
    while f"{stem}{n}" in taken:
        n += 1
    return f"{stem}{n}"


def unfold_rec(proc: Process) -> Process:
    """One unfolding of an outermost recursion; identity otherwise."""
    if isinstance(proc, Rec):
        return substitute_proc(proc.body, proc, proc.var)
    return proc


def head_normal(proc: Process) -> Process:
    """Unfold outermost recursions until a non-rec constructor appears."""
    return _head(proc, Rec, unfold_rec, McmpError, "unguarded recursion")


def _head(t, rec, unfold, error, message: str):
    """t with each of its leading binders (node type rec) unfolded once.  An
    unfolding of a guarded term takes exactly one binder off its top, so a
    binder still on top after them is unguarded, and raises error(message)."""
    u = t
    while type(u) is rec:
        u = u.body
        t = unfold(t)
    if type(t) is rec:
        raise error(message)
    return t


# ---------------------------------------------------------------------------
# alpha-normal canonical forms

_NIL_KEY = ("0",)
_SUCCESS_KEY = ("ok",)
_TRUE_KEY = ("t", True)
_FALSE_KEY = ("t", False)


def canon_process(proc: Process) -> tuple:
    """The canonical form of proc, equal for two processes exactly when they
    are alpha-equivalent (see _canon_walk).  A sum is ("sum", its summands'
    forms in sorted order), and a choice of one summand has that summand's
    form."""
    return _canon_walk(proc, _scope, _form, _fill_free)


def _form(p: Process, env: tuple, forms: list) -> tuple:
    """p's form from its subterms' forms, under the binders env."""
    kind = type(p)
    if kind is Choice:
        items = []
        for b, k in zip(p.branches, forms):
            pre = b.prefix
            if pre.polarity == "!":
                items.append(("!", pre.target, pre.label, _canon_value(pre.payload, env), k))
            else:
                items.append(("?", pre.target, pre.label, k))
        items.sort()
        return items[0] if len(items) == 1 else ("sum", *items)
    if kind is Nil:
        return _NIL_KEY
    if kind is Success:
        return _SUCCESS_KEY
    if kind is ProcVar:
        return ("X",) + _bound(env, ("X", p.name), p.name)
    if kind is Rec:
        return ("rec", forms[0])
    if kind is Cond:
        return ("if", _canon_value(p.guard, env), forms[0], forms[1])
    raise TypeError(p)


def _canon_walk(p, scope, form, fill) -> tuple:
    """The canonical form of p in the language that scope, form and fill
    describe: scope(node) lists a node's subterms, each with the binder it
    sits under or None, form(node, env, forms) builds a node's form from its
    subterms' forms under env, the binders around it, innermost last, and
    fill sets a node's slots (see _fill_slots).  A bound name is ("b", i)
    for the binder i binders further out (a de Bruijn index), and a free
    name stays a name, so a subterm's form does not depend on how deep it
    sits.

    A node keeps its form in _key when no binder around it binds a name
    free in it, and it is not p: p is rebuilt on each request from its
    subterms' forms, so a term that lives for a whole run, such as a
    participant's process, does not carry the top of its form, while its
    continuations, which steps ask for, keep theirs.  The form of a kept
    subterm is that same object, so the walk descends only where a binder
    is used or no form is kept yet.  Computed without recursion."""
    try:
        if p._key is not None:
            return p._key
    except AttributeError:  # a node whose slots are unset
        _fill_slots(p, scope, fill)
    # q is the node being built, under the binders env, from the forms of
    # its subterms subs made so far; stack holds the nodes above it
    q, env, subs, forms = p, (), scope(p), []
    stack = []
    while True:
        if len(forms) < len(subs):
            sub, binder = subs[len(forms)]
            inner = env if binder is None else env + (binder,)
            if inner and sub._free.isdisjoint(inner):
                inner = ()
            if not inner and sub._key is not None:
                forms.append(sub._key)
            else:
                stack.append((q, env, subs, forms))
                q, env, subs, forms = sub, inner, scope(sub), []
            continue
        key = form(q, env, forms)
        if not stack:
            return key
        if not env:
            object.__setattr__(q, "_key", key)
        q, env, subs, forms = stack.pop()
        forms.append(key)


def _bound(env: tuple, binder, name: str) -> tuple:
    for i in range(len(env) - 1, -1, -1):
        if env[i] == binder:
            return ("b", len(env) - 1 - i)
    return ("f", name)


def _canon_value(v: Value, env: tuple) -> tuple:
    if isinstance(v, Var):
        return ("v",) + _bound(env, v.name, v.name)
    if isinstance(v, NatVal):
        return ("n", v.value)
    return _TRUE_KEY if v.value else _FALSE_KEY


def canon_session(m: Session) -> tuple:
    """Canonical form up to the non-unfolding fragment of structural
    congruence: alpha-conversion, commutativity and associativity of | and +,
    and removal of nil participants."""
    items = []
    for name, proc in m.parts:
        if isinstance(proc, Nil):
            continue
        items.append((name, canon_process(proc)))
    return tuple(sorted(items))


def alpha_equal(p: Process, q: Process) -> bool:
    return canon_process(p) == canon_process(q)


def struct_congruent(m1: Session, m2: Session) -> bool:
    return canon_session(m1) == canon_session(m2)


# ---------------------------------------------------------------------------
# renaming and symmetry


def apply_rename(m: Session, sigma: dict[str, str]) -> Session:
    """Rename participants by the bijection sigma, in roles and prefixes.
    Names outside dom(sigma) are left unchanged."""
    if len(set(sigma.values())) != len(sigma):
        raise McmpError("renaming is not a bijection")

    def ren(name: str) -> str:
        return sigma.get(name, name)

    def node(p: Process, subs: list) -> Process:
        if type(p) is not Choice:
            return _rule(p, subs, (), None, None)
        new = []
        for b, k in zip(p.branches, subs):
            pre = b.prefix
            new.append(Branch(Prefix(ren(pre.target), pre.polarity, pre.label, pre.payload, pre.var), k))
        return Choice(tuple(new))

    memo: dict = {}
    return Session(tuple((ren(name), _rebuild(proc, _scope, node, memo)) for name, proc in m.parts))


def is_symmetric(m: Session, sigma: dict[str, str]) -> bool:
    """True iff the process at sigma(i) is (alpha-equal to) the process at i
    under sigma, for every participant i of m."""
    roles = set(m.participants())
    dom = set(sigma) & roles
    img = {sigma[p] for p in dom}
    if img - roles:
        raise McmpError("renaming is not closed over the participants")
    for name, proc in m.parts:
        if name not in sigma:
            continue
        target = sigma[name]
        expected = apply_rename(Session((("_", proc),)), sigma).parts[0][1]
        if not alpha_equal(m.process_of(target), expected):
            return False
    return True


# ---------------------------------------------------------------------------
# subcalculus classification

SUBCALCULI = ("MCMP", "MSMP", "SCMP", "DMP", "SMP", "MP", "MCBS", "SCBS", "BS")


def _ok_msmp(c: Choice) -> bool:
    # One polarity per participant; choices directed at a single participant
    # are admitted wholesale so that the directed calculi sit below MSMP in
    # the inclusion lattice.
    if _ok_dmp(c):
        return True
    pols: dict[str, set[str]] = {}
    for b in c.branches:
        pols.setdefault(b.prefix.target, set()).add(b.prefix.polarity)
    return all(len(s) == 1 for s in pols.values())


def _ok_scmp(c: Choice) -> bool:
    return len({b.prefix.polarity for b in c.branches}) == 1


def _ok_dmp(c: Choice) -> bool:
    return len({b.prefix.target for b in c.branches}) == 1


def _ok_smp(c: Choice) -> bool:
    return _ok_scmp(c) and _ok_dmp(c)


def _ok_mp(c: Choice) -> bool:
    if len(c.branches) == 1 and c.branches[0].prefix.polarity == "!":
        return True
    return _ok_smp(c) and c.branches[0].prefix.polarity == "?"


def classify(m: Session) -> set[str]:
    """Every subcalculus whose syntactic restriction m satisfies."""
    occurrences = [c for _, proc in m.parts for c in choices(proc)]
    binary = len(session_participants(m)) <= 2
    out = {"MCMP"}
    if all(_ok_msmp(c) for c in occurrences):
        out.add("MSMP")
    if all(_ok_scmp(c) for c in occurrences):
        out.add("SCMP")
    if all(_ok_dmp(c) for c in occurrences):
        out.add("DMP")
    if all(_ok_smp(c) for c in occurrences):
        out.add("SMP")
    if all(_ok_mp(c) for c in occurrences):
        out.add("MP")
    if binary:
        if "MCMP" in out:
            out.add("MCBS")
        if "SCMP" in out:
            out.add("SCBS")
        if "MP" in out:
            out.add("BS")
    return out


# ---------------------------------------------------------------------------
# lexer


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nat>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[{}()=+.!?:])""",
    re.VERBOSE,
)

_KEYWORDS = {"role", "rec", "if", "then", "else", "types", "tt", "ff", "ok", "end", "nat", "bool"}


@dataclass
class _Tok:
    kind: str  # 'nat' | 'ident' | 'kw' | punct char | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str, pattern: re.Pattern = _TOKEN_RE, keywords=_KEYWORDS) -> list[_Tok]:
    """The tokens of text under pattern, whose groups are named as in
    _TOKEN_RE; an identifier in keywords is a 'kw' token."""
    toks: list[_Tok] = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - bol + 1)
        col = pos - bol + 1
        if m.lastgroup in ("ws", "comment"):
            chunk = m.group()
            line += chunk.count("\n")
            if "\n" in chunk:
                bol = m.start() + chunk.rfind("\n") + 1
        elif m.lastgroup == "nat":
            toks.append(_Tok("nat", m.group(), line, col))
        elif m.lastgroup == "ident":
            kind = "kw" if m.group() in keywords else "ident"
            toks.append(_Tok(kind, m.group(), line, col))
        else:
            toks.append(_Tok(m.group(), m.group(), line, col))
        pos = m.end()
    toks.append(_Tok("eof", "", line, len(text) - bol + 1))
    return toks


class _Parser:
    def __init__(self, text: str, allow_reserved: bool = False):
        self.toks = _tokenize(text)
        self.i = 0
        self.allow_reserved = allow_reserved

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> _Tok:
        t = self.next()
        if t.kind != kind and not (kind == "kw" and t.text == what):
            raise ParseError(f"expected {what or kind}, found {t.text!r}", t.line, t.col)
        if what is not None and t.text != what:
            raise ParseError(f"expected {what!r}, found {t.text!r}", t.line, t.col)
        return t

    def error(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col)

    def expect_name(self) -> _Tok:
        """An identifier, or a keyword where only a name can stand: a label,
        an input's binder or a participant's name."""
        return self.next() if self.peek().kind == "kw" else self.expect("ident")

    # -- labels: a name with an optional reserved ".o"/".i" suffix

    def parse_label(self) -> str:
        t = self.expect_name()
        label = t.text
        if (
            self.peek().kind == "."
            and self.peek(1).kind == "ident"
            and self.peek(1).text in ("o", "i")
            and self.peek(2).kind == "("
        ):
            self.next()
            label += "." + self.next().text
        if not self.allow_reserved and is_reserved_label(label):
            raise ParseError(f"label {label!r} is reserved for encodings", t.line, t.col)
        return label

    def parse_value(self) -> Value:
        t = self.next()
        if t.kind == "nat":
            return NatVal(int(t.text))
        if t.text == "tt" or t.text == "ff":  # keywords here, identifiers in .cmv
            return TT if t.text == "tt" else FF
        if t.kind == "ident":
            return Var(t.text)
        raise ParseError(f"expected a value, found {t.text!r}", t.line, t.col)

    # -- processes

    def _sum(self, unary, kind, noun: str):
        """A unary() term, or the choice (of node type kind) that sums them."""
        term = unary()
        if self.peek().kind != "+":
            return term
        branches = []
        while True:
            if not isinstance(term, kind):
                raise self.error(f"only prefixed {noun} can be summands")
            branches += term.branches
            if self.peek().kind != "+":
                return kind(tuple(branches))
            self.next()
            term = unary()

    def parse_process(self) -> Process:
        return self._sum(self.parse_unary, Choice, "terms")

    def parse_unary(self) -> Process:
        return self._unary(self._prefix, self._leaf, Choice, Branch, Rec, ProcVar, "recursion")

    def _unary(self, prefix, leaf, choice, branch, rec, var_kind, noun: str):
        """A run of prefixes and `rec X.` binders, then leaf(), built from the
        inside out, so a run costs no stack.  prefix(target, polarity, label)
        reads the part in brackets and returns the fields of the branch
        before its continuation.  Guards are checked innermost first, so
        errors come in the order the grammar's recursive reading gives."""
        run = []
        while True:
            t = self.peek()
            if t.kind in ("ident", "kw") and self.peek(1).kind in ("!", "?"):  # a target may be a keyword
                self.next()
                run.append(prefix(t.text, self.next().kind, self.parse_label()))
            elif t.kind == "kw" and t.text == "rec":
                self.next()
                run.append((t, self.expect("ident").text))
            else:
                break
            self.expect(".")
        term = leaf()
        for entry in reversed(run):
            if type(entry[0]) is not _Tok:
                term = choice((branch(*entry, term),))
                continue
            t, var = entry  # a binder's token and the name it binds
            if not _guards(var, term, rec, var_kind):
                raise ParseError(f"{noun} rec {var} is not guarded", t.line, t.col)
            term = rec(var, term)
        return term

    def _prefix(self, target: str, polarity: str, label: str) -> tuple:
        self.expect("(")
        if polarity == "!":
            prefix = Prefix(target, "!", label, payload=self.parse_value())
        else:
            prefix = Prefix(target, "?", label, var=self.expect_name().text)
        self.expect(")")
        return (prefix,)

    def _leaf(self) -> Process:
        t = self.next()
        if t.kind == "nat" and t.text == "0":
            return Nil()
        if t.kind == "kw" and t.text == "ok":
            return Success()
        if t.kind == "kw" and t.text == "if":
            guard = self.parse_value()
            self.expect("kw", "then")
            then = self.parse_process()
            self.expect("kw", "else")
            return Cond(guard, then, self.parse_process())
        if t.kind == "(":
            inner = self.parse_process()
            self.expect(")")
            return inner
        if t.kind == "ident" and t.text[0].isupper():
            return ProcVar(t.text)
        raise ParseError(f"expected a process, found {t.text!r}", t.line, t.col)

    # -- sessions

    def parse_session_file(self):
        parts: list[tuple[str, Process]] = []
        context = None
        if self.peek().kind == "eof":
            raise self.error("empty source")
        while self.peek().kind == "kw" and self.peek().text == "role":
            self.next()
            t = self.expect_name()
            name = t.text
            if any(p == name for p, _ in parts):
                raise ParseError(f"duplicate participant {name!r}", t.line, t.col)
            self.expect("=")
            proc = self.parse_process()
            if name in mentioned_participants(proc):
                raise ParseError(f"participant {name!r} addresses itself", t.line, t.col)
            parts.append((name, proc))
        if self.peek().kind == "kw" and self.peek().text == "types":
            from . import ltypes

            self.next()
            self.expect("{")
            entries: list[tuple[str, "ltypes.LocalType"]] = []
            while self.peek().kind != "}":
                t = self.expect_name()
                if any(p == t.text for p, _ in entries):
                    raise ParseError(f"duplicate type entry {t.text!r}", t.line, t.col)
                self.expect(":")
                entries.append((t.text, self.parse_ltype()))
            self.expect("}")
            context = ltypes.LocalContext(tuple(entries))
        if self.peek().kind != "eof":
            raise self.error(f"unexpected trailing input {self.peek().text!r}")
        if not parts:
            raise self.error("expected at least one role declaration")
        return Session(tuple(parts)), context

    # -- local types (surface syntax shared with the session grammar)

    def parse_ltype(self):
        from . import ltypes

        return self._sum(self.parse_tunary, ltypes.TChoice, "types")

    def parse_tunary(self):
        from . import ltypes

        return self._unary(self._tprefix, self._tleaf, ltypes.TChoice, ltypes.TBranch, ltypes.TRec, ltypes.TVar,
                           "recursive type")

    def _tprefix(self, target: str, polarity: str, label: str) -> tuple:
        self.expect("(")
        pt = self.next()
        if pt.kind != "kw" or pt.text not in ("nat", "bool"):
            raise ParseError("expected payload type nat or bool", pt.line, pt.col)
        self.expect(")")
        return target, polarity, label, pt.text

    def _tleaf(self):
        from . import ltypes

        t = self.next()
        if t.kind == "kw" and t.text == "end":
            return ltypes.End()
        if t.kind == "(":
            inner = self.parse_ltype()
            self.expect(")")
            return inner
        if t.kind == "ident":
            return ltypes.TVar(t.text)
        raise ParseError(f"expected a local type, found {t.text!r}", t.line, t.col)


def _guards(var: str, body, rec, var_kind) -> bool:
    """True iff the binder var is guarded over body: var does not stand at
    body's top under binders (node type rec) of other names only.  One rule
    for processes and local types; var_kind is the node type of a variable."""
    while type(body) is rec:
        if body.var == var:
            return True
        body = body.body
    return not (type(body) is var_kind and body.name == var)


def parse_session(text: str, allow_reserved: bool = False) -> Session:
    session, _ = _Parser(text, allow_reserved).parse_session_file()
    return session


def parse_source(text: str, allow_reserved: bool = False):
    """Parse a full source file, returning (session, declared context or None)."""
    return _Parser(text, allow_reserved).parse_session_file()


def parse_process(text: str, allow_reserved: bool = False) -> Process:
    return _parse_whole(text, allow_reserved, _Parser.parse_process)


def parse_ltype(text: str, allow_reserved: bool = False):
    return _parse_whole(text, allow_reserved, _Parser.parse_ltype)


def _parse_whole(text: str, allow_reserved: bool, rule):
    """The term rule(parser) reads from the whole of text."""
    parser = _Parser(text, allow_reserved)
    term = rule(parser)
    if parser.peek().kind != "eof":
        raise parser.error("unexpected trailing input")
    return term


# ---------------------------------------------------------------------------
# rendering


def render_value(v: Value) -> str:
    match v:
        case Var(name):
            return name
        case NatVal(n):
            return str(n)
        case BoolVal(b):
            return "tt" if b else "ff"
    raise TypeError(v)


def render_process(proc: Process) -> str:
    """The surface syntax of proc (see _render)."""
    return _render([proc], _text)


def _text(p: Process) -> list:
    """p's text and subterms, in order."""
    kind = type(p)
    if kind is Choice:
        out = []
        for b in p.branches:
            pre = b.prefix
            value = render_value(pre.payload) if pre.polarity == "!" else pre.var
            out += (" + ", f"{pre.target}{pre.polarity}{pre.label}({value}).", *_cont(b.cont))
        return out[1:]
    if kind is Nil:
        return ["0"]
    if kind is Success:
        return ["ok"]
    if kind is ProcVar:
        return [p.name]
    if kind is Rec:
        return [f"rec {p.var}.", *_cont(p.body)]
    if kind is Cond:
        return [f"if {render_value(p.guard)} then ", *_cont(p.then), " else ", *_cont(p.els)]
    raise TypeError(p)


def _cont(p: Process) -> tuple:
    """A continuation's items: bracketed when it is a sum, a conditional or
    a recursion."""
    return ("(", p, ")") if type(p) in (Cond, Rec) or (type(p) is Choice and len(p.branches) > 1) else (p,)


def _render(items: list, text) -> str:
    """The text of items, strings and terms of the language in which
    text(node) lists a node's strings and subterms in order.  Computed
    without recursion: what is still to print is a stack, next item last."""
    out: list[str] = []
    todo = items[::-1]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        else:
            todo += reversed(text(item))
    return "".join(out)


def render_session(m: Session, context=None) -> str:
    lines = [f"role {name} = {render_process(proc)}" for name, proc in m.parts]
    if context is not None:
        from . import ltypes

        lines.append("types {")
        for name, t in context.entries:
            lines.append(f"  {name}: {ltypes.render_type(t)}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def render_length(m: Session, context=None) -> int:
    """len(render_session(m, context)), computed without the text: each
    subterm is measured once however often the terms repeat it (see
    _rebuild), so in time linear in the shared terms."""
    from . import ltypes

    def length(entries, scope, text, around: str) -> int:
        memo: dict = {}

        def node(q, subs: list) -> int:
            return sum(subs) + sum(len(item) for item in text(q) if type(item) is str)

        return sum(len(around) + len(name) + _rebuild(t, scope, node, memo) for name, t in entries)

    n = length(m.parts, _scope, _text, "role  = \n")
    if context is not None:
        n += len("types {\n}\n") + length(context.entries, ltypes._scope, ltypes._text, "  : \n")
    return n


def render(term) -> str:
    """Render a Process, Session or LocalType; parse(render(t)) is
    alpha-equivalent to t."""
    from . import ltypes

    if isinstance(term, Session):
        return render_session(term)
    if isinstance(term, (Nil, Success, ProcVar, Rec, Choice, Cond)):
        return render_process(term)
    return ltypes.render_type(term)
