"""Algorithmic type checking of processes against declared local types, with
subsumption folded into the syntax-directed rules, plus session-error
detection and the context step mirroring a session step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ltypes, semantics, syntax
from .ltypes import End, LocalContext, LocalType, TChoice, head, subtype, well_formed
from .syntax import (
    BoolVal,
    Choice,
    Cond,
    NatVal,
    Nil,
    Process,
    ProcVar,
    Rec,
    Session,
    Success,
    Value,
    Var,
)


@dataclass(frozen=True)
class SharedContext:
    value_bindings: tuple[tuple[str, str], ...] = ()
    proc_bindings: tuple[tuple[str, LocalType], ...] = ()

    def value_type(self, name: str) -> str | None:
        for n, t in reversed(self.value_bindings):
            if n == name:
                return t
        return None

    def proc_type(self, name: str) -> LocalType | None:
        for n, t in reversed(self.proc_bindings):
            if n == name:
                return t
        return None

    def bind_value(self, name: str, payload: str) -> "SharedContext":
        return SharedContext(self.value_bindings + ((name, payload),), self.proc_bindings)

    def bind_proc(self, name: str, t: LocalType) -> "SharedContext":
        return SharedContext(self.value_bindings, self.proc_bindings + ((name, t),))


@dataclass(frozen=True)
class CheckError:
    kind: str
    location: str
    message: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "location": self.location, "message": self.message}


class TypeCheckError(syntax.McmpError):
    def __init__(self, errors: list[CheckError]):
        super().__init__("; ".join(e.message for e in errors))
        self.errors = errors


def type_value(gamma: SharedContext, v: Value) -> str:
    match v:
        case NatVal():
            return "nat"
        case BoolVal():
            return "bool"
        case Var(name):
            t = gamma.value_type(name)
            if t is None:
                raise TypeCheckError([CheckError("unknown-var", name, f"variable {name!r} is not in scope")])
            return t
    raise TypeError(v)


def check_process(gamma: SharedContext, proc: Process, t: LocalType, where: str = "") -> list[CheckError]:
    """Syntax-directed checking; returns an empty list when proc has type t."""
    errors: list[CheckError] = []
    if not well_formed(t):
        return [CheckError("label-clash", where, "declared type is not well-formed (duplicate label per prefix)")]
    _check(gamma, proc, t, where or "process", errors)
    return errors


def _check(gamma: SharedContext, proc: Process, t: LocalType, where: str, errors: list[CheckError]) -> None:
    h = head(t)
    match proc:
        case Nil() | Success():
            if not isinstance(h, End):
                errors.append(CheckError("not-subtype", where, f"{where}: terminated process needs type end, not {ltypes.render_type(t)}"))
        case ProcVar(name):
            declared = gamma.proc_type(name)
            if declared is None:
                errors.append(CheckError("unknown-var", where, f"{where}: unbound process variable {name}"))
            elif not subtype(declared, t):
                errors.append(CheckError("not-subtype", where, f"{where}: process variable {name} has type {ltypes.render_type(declared)}, not a subtype of {ltypes.render_type(t)}"))
        case Rec(x, body):
            _check(gamma.bind_proc(x, t), body, t, where, errors)
        case Cond(guard, then, els):
            try:
                gt = type_value(gamma, guard)
                if gt != "bool":
                    errors.append(CheckError("payload-mismatch", where, f"{where}: conditional guard has type {gt}, expected bool"))
            except TypeCheckError as e:
                errors.extend(e.errors)
            _check(gamma, then, t, where + "/then", errors)
            _check(gamma, els, t, where + "/else", errors)
        case Choice(branches):
            if not isinstance(h, TChoice):
                errors.append(CheckError("not-subtype", where, f"{where}: choice cannot have type {ltypes.render_type(t)}"))
                return
            declared = {(b.target, b.polarity, b.label): b for b in h.branches}
            for b in branches:
                pre = b.prefix
                key = (pre.target, pre.polarity, pre.label)
                decl = declared.get(key)
                if decl is None:
                    kind = "missing-branch"
                    errors.append(CheckError(kind, where, f"{where}: no declared branch for {pre.target}{pre.polarity}{pre.label}"))
                    continue
                if pre.polarity == "!":
                    try:
                        vt = type_value(gamma, pre.payload)
                        if vt != decl.payload:
                            errors.append(CheckError("payload-mismatch", where, f"{where}: payload of {pre.target}!{pre.label} has type {vt}, declared {decl.payload}"))
                            continue
                    except TypeCheckError as e:
                        errors.extend(e.errors)
                        continue
                    _check(gamma, b.cont, decl.cont, where + f"/{pre.target}!{pre.label}", errors)
                else:
                    _check(gamma.bind_value(pre.var, decl.payload), b.cont, decl.cont, where + f"/{pre.target}?{pre.label}", errors)
            offered = {(b.prefix.target, b.prefix.polarity, b.prefix.label) for b in branches}
            for key, decl in declared.items():
                if decl.polarity == "?" and key not in offered:
                    errors.append(CheckError("uncovered-input-branch", where, f"{where}: declared input branch {decl.target}?{decl.label} has no summand"))
        case _:
            raise TypeError(proc)


def check_session(m: Session, delta: LocalContext, max_states: int | None = None, max_depth: int | None = None) -> list[CheckError]:
    """Every participant checks against its declared type and the context is
    safe, within the optional bounds (see ltypes.is_safe); both conditions
    are reported independently."""
    errors: list[CheckError] = []
    dom = set(delta.domain())
    roles = set(m.participants())
    for p in roles - dom:
        errors.append(CheckError("not-subtype", p, f"participant {p} has no declared type"))
    for p in dom - roles:
        if not isinstance(head(delta.type_of(p)), End):
            errors.append(CheckError("not-subtype", p, f"declared participant {p} is absent but not typed end"))
    for p, proc in m.parts:
        if p in dom:
            errors.extend(check_process(SharedContext(), proc, delta.type_of(p), where=p))
    ok, witness = ltypes.is_safe(delta, max_states, max_depth)
    if not ok:
        errors.append(CheckError("context-unsafe", "context", f"declared context is not safe: {witness}"))
    return errors


# ---------------------------------------------------------------------------
# session errors


def is_session_error(m: Session):
    """Label error: some participant holds an unguarded output toward a peer
    that is listening to it but on other labels only.  Value error: an
    unguarded conditional over a closed non-boolean.  Returns (flag, witness).
    """
    r = semantics.resolve(m)
    for p, proc in r.parts:
        if isinstance(proc, Cond) and isinstance(proc.guard, NatVal):
            return True, {"kind": "value-error", "participant": p, "guard": syntax.render_value(proc.guard)}
    choices = {p: proc for p, proc in r.parts if isinstance(proc, Choice)}
    for p, pchoice in choices.items():
        for b in pchoice.branches:
            if b.prefix.polarity != "!":
                continue
            q = b.prefix.target
            qchoice = choices.get(q)
            if qchoice is None:
                continue
            inputs_from_p = [c.prefix.label for c in qchoice.branches if c.prefix.polarity == "?" and c.prefix.target == p]
            if inputs_from_p and b.prefix.label not in inputs_from_p:
                return True, {
                    "kind": "label-error",
                    "sender": p,
                    "receiver": q,
                    "label": b.prefix.label,
                    "listening": sorted(set(inputs_from_p)),
                }
    return False, None


def step_context(delta: LocalContext, step: semantics.Step) -> LocalContext:
    """The context step matching a session step; conditionals leave the
    context unchanged.  A missing match signals a subject-reduction bug."""
    if step.kind in ("if-tt", "if-ff"):
        return delta
    payload = type_value(SharedContext(), step.payload)
    for act, succ in ltypes.context_steps(delta):
        if (
            act.subject == step.sender
            and act.peer == step.receiver
            and act.label == step.label
            and act.payload == payload
        ):
            return succ
    raise syntax.McmpError(
        f"no context step matches {step.describe()}: subject reduction violated"
    )
