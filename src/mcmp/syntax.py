"""Abstract syntax, parsing and printing for mixed-choice multiparty sessions.

Participants and labels are plain strings.  Terms are plain values: equal
terms are interchangeable wherever they occur, and nothing in them depends
on what else the process built or parsed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


RESERVED_LABELS = ("enc_o", "enc_i", "reset")


def is_reserved_label(label: str) -> bool:
    return label in RESERVED_LABELS or label.endswith(".o") or label.endswith(".i")


# ---------------------------------------------------------------------------
# values and prefixes


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class NatVal:
    value: int


@dataclass(frozen=True)
class BoolVal:
    value: bool


Value = Var | NatVal | BoolVal

TT = BoolVal(True)
FF = BoolVal(False)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Nil:
    pass


@dataclass(frozen=True)
class Success:
    pass


@dataclass(frozen=True)
class ProcVar:
    name: str


@dataclass(frozen=True)
class Rec:
    var: str
    body: "Process"


@dataclass(frozen=True)
class Branch:
    prefix: Prefix
    cont: "Process"


@dataclass(frozen=True)
class Choice:
    branches: tuple[Branch, ...]

    def __post_init__(self):
        assert self.branches


@dataclass(frozen=True)
class Cond:
    guard: Value
    then: "Process"
    els: "Process"


Process = Nil | Success | ProcVar | Rec | Choice | Cond


@dataclass(frozen=True)
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
    out: list[Choice] = []

    def walk(p: Process):
        match p:
            case Choice(branches):
                out.append(p)
                for b in branches:
                    walk(b.cont)
            case Cond(_, t, e):
                walk(t)
                walk(e)
            case Rec(_, body):
                walk(body)
            case _:
                pass

    walk(proc)
    return out


def mentioned_participants(proc: Process) -> set[str]:
    return {b.prefix.target for c in choices(proc) for b in c.branches}


def session_participants(m: Session) -> set[str]:
    """Roles of the session plus every participant mentioned in a prefix."""
    out = set(m.participants())
    for _, proc in m.parts:
        out |= mentioned_participants(proc)
    return out


def free_value_vars(proc: Process) -> set[str]:
    def walk(p: Process, bound: frozenset[str]) -> set[str]:
        match p:
            case Choice(branches):
                out: set[str] = set()
                for b in branches:
                    pre = b.prefix
                    if pre.polarity == "!" and isinstance(pre.payload, Var):
                        if pre.payload.name not in bound:
                            out.add(pre.payload.name)
                    inner = bound | {pre.var} if pre.polarity == "?" else bound
                    out |= walk(b.cont, inner)
                return out
            case Cond(g, t, e):
                out = walk(t, bound) | walk(e, bound)
                if isinstance(g, Var) and g.name not in bound:
                    out.add(g.name)
                return out
            case Rec(_, body):
                return walk(body, bound)
            case _:
                return set()

    return walk(proc, frozenset())


# ---------------------------------------------------------------------------
# substitution


def substitute_value(proc: Process, value: Value, var: str) -> Process:
    """Capture-avoiding substitution proc[value/var]."""

    def subst_v(v: Value) -> Value:
        if isinstance(v, Var) and v.name == var:
            return value
        return v

    def walk(p: Process) -> Process:
        match p:
            case Choice(branches):
                new = []
                for b in branches:
                    pre = b.prefix
                    if pre.polarity == "!":
                        new_pre = Prefix(pre.target, "!", pre.label, payload=subst_v(pre.payload))
                        new.append(Branch(new_pre, walk(b.cont)))
                    else:
                        if pre.var == var:
                            new.append(Branch(pre, b.cont))
                        elif isinstance(value, Var) and pre.var == value.name and var in free_value_vars(b.cont):
                            renamed_var, renamed = _rename_binder(pre.var, b.cont)
                            new_pre = Prefix(pre.target, "?", pre.label, var=renamed_var)
                            new.append(Branch(new_pre, walk(renamed)))
                        else:
                            new.append(Branch(pre, walk(b.cont)))
                return Choice(tuple(new))
            case Cond(g, t, e):
                return Cond(subst_v(g), walk(t), walk(e))
            case Rec(x, body):
                return Rec(x, walk(body))
            case _:
                return p

    return walk(proc)


def _rename_binder(old: str, body: Process) -> tuple[str, Process]:
    """A name old_<n> not free in body, with the smallest such n, and body
    with old renamed to it; the same body always gets the same name."""
    free = free_value_vars(body)
    n = 0
    while f"{old}_{n}" in free:
        n += 1
    new = f"{old}_{n}"
    return new, substitute_value(body, Var(new), old)


def substitute_proc(proc: Process, repl: Process, var: str) -> Process:
    """proc[repl/var] on process variables."""
    match proc:
        case ProcVar(name) if name == var:
            return repl
        case Rec(x, body):
            if x == var:
                return proc
            return Rec(x, substitute_proc(body, repl, var))
        case Choice(branches):
            return Choice(tuple(Branch(b.prefix, substitute_proc(b.cont, repl, var)) for b in branches))
        case Cond(g, t, e):
            return Cond(g, substitute_proc(t, repl, var), substitute_proc(e, repl, var))
        case _:
            return proc


def unfold_rec(proc: Process) -> Process:
    """One unfolding of an outermost recursion; identity otherwise."""
    if isinstance(proc, Rec):
        return substitute_proc(proc.body, proc, proc.var)
    return proc


def head_normal(proc: Process) -> Process:
    """Unfold outermost recursions until a non-rec constructor appears."""
    seen = 0
    while isinstance(proc, Rec):
        proc = unfold_rec(proc)
        seen += 1
        if seen > 64:
            raise McmpError("unguarded recursion")
    return proc


# ---------------------------------------------------------------------------
# alpha-normal canonical forms


def canon_process(proc: Process, env: tuple[tuple[str, int], ...] = ()) -> tuple:
    def lookup(env, name, kind):
        for n, i in reversed(env):
            if n == (kind, name):
                return ("b", i)
        return ("f", name)

    def cval(v: Value, env):
        if isinstance(v, Var):
            return ("v",) + lookup(env, v.name, "v")
        if isinstance(v, NatVal):
            return ("n", v.value)
        return ("t", v.value)

    def walk(p: Process, env) -> tuple:
        match p:
            case Nil():
                return ("0",)
            case Success():
                return ("ok",)
            case ProcVar(name):
                return ("X",) + lookup(env, name, "X")
            case Rec(x, body):
                inner = env + ((("X", x), len(env)),)
                return ("rec", walk(body, inner))
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

    def walk(p: Process) -> Process:
        match p:
            case Choice(branches):
                new = []
                for b in branches:
                    pre = b.prefix
                    if pre.polarity == "!":
                        np = Prefix(ren(pre.target), "!", pre.label, payload=pre.payload)
                    else:
                        np = Prefix(ren(pre.target), "?", pre.label, var=pre.var)
                    new.append(Branch(np, walk(b.cont)))
                return Choice(tuple(new))
            case Cond(g, t, e):
                return Cond(g, walk(t), walk(e))
            case Rec(x, body):
                return Rec(x, walk(body))
            case _:
                return p

    return Session(tuple((ren(name), walk(proc)) for name, proc in m.parts))


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


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
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
            kind = "kw" if m.group() in _KEYWORDS else "ident"
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

    # -- labels: IDENT with an optional reserved ".o"/".i" suffix

    def parse_label(self) -> str:
        t = self.expect("ident")
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
        if t.kind == "kw" and t.text == "tt":
            return TT
        if t.kind == "kw" and t.text == "ff":
            return FF
        if t.kind == "ident":
            return Var(t.text)
        raise ParseError(f"expected a value, found {t.text!r}", t.line, t.col)

    # -- processes

    def parse_process(self) -> Process:
        first = self.parse_unary()
        if self.peek().kind != "+":
            return first
        if not isinstance(first, Choice):
            raise self.error("only prefixed terms can be summands")
        branches = list(first.branches)
        while self.peek().kind == "+":
            self.next()
            nxt = self.parse_unary()
            if not isinstance(nxt, Choice):
                raise self.error("only prefixed terms can be summands")
            branches.extend(nxt.branches)
        return Choice(tuple(branches))

    def parse_unary(self) -> Process:
        t = self.peek()
        if t.kind == "nat" and t.text == "0":
            self.next()
            return Nil()
        if t.kind == "kw" and t.text == "ok":
            self.next()
            return Success()
        if t.kind == "kw" and t.text == "rec":
            self.next()
            var = self.expect("ident").text
            self.expect(".")
            body = self.parse_unary()
            if _unguarded_procvar(body, var):
                raise ParseError(f"recursion rec {var} is not guarded", t.line, t.col)
            return Rec(var, body)
        if t.kind == "kw" and t.text == "if":
            self.next()
            guard = self.parse_value()
            self.expect("kw", "then")
            then = self.parse_process()
            self.expect("kw", "else")
            els = self.parse_process()
            return Cond(guard, then, els)
        if t.kind == "(":
            self.next()
            inner = self.parse_process()
            self.expect(")")
            return inner
        if t.kind == "ident":
            nxt = self.peek(1)
            if nxt.kind in ("!", "?"):
                return self.parse_atom()
            if t.text[0].isupper():
                self.next()
                return ProcVar(t.text)
        raise self.error(f"expected a process, found {t.text!r}")

    def parse_atom(self) -> Choice:
        target = self.expect("ident")
        pol = self.next()
        if pol.kind not in ("!", "?"):
            raise ParseError("expected ! or ?", pol.line, pol.col)
        label = self.parse_label()
        self.expect("(")
        if pol.kind == "!":
            payload = self.parse_value()
            prefix = Prefix(target.text, "!", label, payload=payload)
        else:
            var = self.expect("ident").text
            prefix = Prefix(target.text, "?", label, var=var)
        self.expect(")")
        self.expect(".")
        cont = self.parse_unary()
        return Choice((Branch(prefix, cont),))

    # -- sessions

    def parse_session_file(self):
        from . import ltypes

        parts: list[tuple[str, Process]] = []
        context = None
        if self.peek().kind == "eof":
            raise self.error("empty source")
        while self.peek().kind == "kw" and self.peek().text == "role":
            self.next()
            t = self.expect("ident")
            name = t.text
            if any(p == name for p, _ in parts):
                raise ParseError(f"duplicate participant {name!r}", t.line, t.col)
            self.expect("=")
            proc = self.parse_process()
            if name in mentioned_participants(proc):
                raise ParseError(f"participant {name!r} addresses itself", t.line, t.col)
            parts.append((name, proc))
        if self.peek().kind == "kw" and self.peek().text == "types":
            self.next()
            self.expect("{")
            entries: list[tuple[str, "ltypes.LocalType"]] = []
            while self.peek().kind != "}":
                t = self.expect("ident")
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

        first = self.parse_tunary()
        if self.peek().kind != "+":
            return first
        if not isinstance(first, ltypes.TChoice):
            raise self.error("only prefixed types can be summands")
        branches = list(first.branches)
        while self.peek().kind == "+":
            self.next()
            nxt = self.parse_tunary()
            if not isinstance(nxt, ltypes.TChoice):
                raise self.error("only prefixed types can be summands")
            branches.extend(nxt.branches)
        return ltypes.TChoice(tuple(branches))

    def parse_tunary(self):
        from . import ltypes

        t = self.peek()
        if t.kind == "kw" and t.text == "end":
            self.next()
            return ltypes.End()
        if t.kind == "kw" and t.text == "rec":
            self.next()
            var = self.expect("ident").text
            self.expect(".")
            body = self.parse_tunary()
            rec = ltypes.TRec(var, body)
            if not ltypes.guarded(rec):
                raise ParseError(f"recursive type rec {var} is not guarded", t.line, t.col)
            return rec
        if t.kind == "(":
            self.next()
            inner = self.parse_ltype()
            self.expect(")")
            return inner
        if t.kind == "ident":
            nxt = self.peek(1)
            if nxt.kind in ("!", "?"):
                target = self.next().text
                pol = self.next().kind
                label = self.parse_label()
                self.expect("(")
                pt = self.next()
                if pt.kind != "kw" or pt.text not in ("nat", "bool"):
                    raise ParseError("expected payload type nat or bool", pt.line, pt.col)
                self.expect(")")
                self.expect(".")
                cont = self.parse_tunary()
                return ltypes.TChoice((ltypes.TBranch(target, pol, label, pt.text, cont),))
            self.next()
            return ltypes.TVar(t.text)
        raise self.error(f"expected a local type, found {t.text!r}")


def _unguarded_procvar(proc: Process, var: str) -> bool:
    """True iff var occurs in proc not under a prefix or conditional."""
    match proc:
        case ProcVar(name):
            return name == var
        case Rec(x, body):
            return x != var and _unguarded_procvar(body, var)
        case _:
            return False


def parse_session(text: str, allow_reserved: bool = False) -> Session:
    session, _ = _Parser(text, allow_reserved).parse_session_file()
    return session


def parse_source(text: str, allow_reserved: bool = False):
    """Parse a full source file, returning (session, declared context or None)."""
    return _Parser(text, allow_reserved).parse_session_file()


def parse_process(text: str, allow_reserved: bool = False) -> Process:
    parser = _Parser(text, allow_reserved)
    proc = parser.parse_process()
    if parser.peek().kind != "eof":
        raise parser.error("unexpected trailing input")
    return proc


def parse_ltype(text: str, allow_reserved: bool = False):
    parser = _Parser(text, allow_reserved)
    t = parser.parse_ltype()
    if parser.peek().kind != "eof":
        raise parser.error("unexpected trailing input")
    return t


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
    """The surface syntax of proc.  Prefix chains nest as deep as they are
    long, so the printer keeps its own stack of terms and text to emit; what
    comes first is pushed last."""
    out: list[str] = []
    todo: list[Process | str] = [proc]

    def push_cont(p: Process) -> None:
        # a continuation is bracketed when it is a sum, conditional or recursion
        if isinstance(p, (Cond, Rec)) or (isinstance(p, Choice) and len(p.branches) > 1):
            todo.extend((")", p, "("))
        else:
            todo.append(p)

    while todo:
        item = todo.pop()
        match item:
            case str():
                out.append(item)
            case Nil():
                out.append("0")
            case Success():
                out.append("ok")
            case ProcVar(name):
                out.append(name)
            case Rec(x, body):
                out.append(f"rec {x}.")
                push_cont(body)
            case Cond(g, t, e):
                out.append(f"if {render_value(g)} then ")
                push_cont(e)
                todo.append(" else ")
                push_cont(t)
            case Choice(branches):
                for k in range(len(branches) - 1, -1, -1):
                    pre = branches[k].prefix
                    push_cont(branches[k].cont)
                    if pre.polarity == "!":
                        todo.append(f"{pre.target}!{pre.label}({render_value(pre.payload)}).")
                    else:
                        todo.append(f"{pre.target}?{pre.label}({pre.var}).")
                    if k:
                        todo.append(" + ")
            case _:
                raise TypeError(item)
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


def render(term) -> str:
    """Render a Process, Session or LocalType; parse(render(t)) is
    alpha-equivalent to t."""
    from . import ltypes

    if isinstance(term, Session):
        return render_session(term)
    if isinstance(term, (Nil, Success, ProcVar, Rec, Choice, Cond)):
        return render_process(term)
    return ltypes.render_type(term)
