"""Reduction semantics over sessions: step enumeration with steps identified
by the participants they consume, bounded exploration, success/barb
observables, conflict analysis and a weak reduction bisimulation checker on
finite graphs.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

from . import lts
from .lts import DEFAULT_MAX_DEPTH, DEFAULT_MAX_STATES
from .syntax import (
    BoolVal,
    Choice,
    Cond,
    McmpError,
    Nil,
    Process,
    Rec,
    Session,
    Success,
    Value,
    _record,
    canon_process,
    form_id,
    head_normal,
    render_process,
    render_value,
    substitute_value,
)


@_record(frozen=True)
class Step:
    """A reduction step identified by what it consumes.

    kind is 'comm', 'if-tt' or 'if-ff'.  Every participant is one sequential
    process, so the choice or conditional a step consumes is the top-level
    term of a participant, and consumed names those participants: sender and
    receiver, or the one participant of a conditional.  For communications
    the branch indices select the summands (the same pair of participants can
    be reduced by several alternative steps picking different summands).
    """

    kind: str
    consumed: frozenset[str]
    sender: str | None = None
    receiver: str | None = None
    label: str | None = None
    payload: Value | None = None
    participant: str | None = None
    sender_branch: int = -1
    receiver_branch: int = -1

    def sort_key(self):
        payload = render_value(self.payload) if self.payload is not None else ""
        return (
            self.kind,
            self.sender or "",
            self.receiver or "",
            self.participant or "",
            self.label or "",
            payload,
            self.sender_branch,
            self.receiver_branch,
        )

    def describe(self) -> str:
        if self.kind == "comm":
            return f"{self.sender}->{self.receiver}:{self.label}({render_value(self.payload)})"
        return f"{self.participant}:{self.kind}"


@_record(frozen=True)
class Barb:
    kind: str  # 'out' or 'in'
    participant: str
    peer: str
    label: str
    payload: Value | None = None

    def describe(self) -> str:
        if self.kind == "out":
            return f"{self.participant}!{self.peer}:{self.label}({render_value(self.payload)})"
        return f"{self.participant}?{self.peer}:{self.label}"


def resolve(m: Session) -> Session:
    """The session with every top-level recursion unfolded, so a mu never
    blocks matching.  A session without a top-level recursion is its own
    resolution."""
    if not any(isinstance(proc, Rec) for _, proc in m.parts):
        return m
    return Session(tuple((name, head_normal(proc)) for name, proc in m.parts))


# A transition is (the step's sort key, the step, the new process of each
# participant it changes, the canonical form of each such process): one
# participant for a conditional, two for a communication.
Transition = tuple[tuple, Step, dict[str, Process], dict[str, tuple]]


def _cond_steps(p: str, proc: Cond) -> list[Transition]:
    kind = "if-tt" if proc.guard.value else "if-ff"
    cont = proc.then if proc.guard.value else proc.els
    step = Step(kind=kind, consumed=frozenset({p}), participant=p)
    return [(step.sort_key(), step, {p: cont}, {p: canon_process(cont)})]


def _comm_steps(p: str, pproc: Choice, q: str, qproc: Choice) -> list[Transition]:
    """The steps in which p sends to q, which depend on their terms alone.
    Steps with the same label and alpha-equal continuations are the same
    step, and only the first is kept."""
    out: list[Transition] = []
    # continuations are compared by form_id number, which no depth of form
    # makes recurse, and only against those of steps with the same label
    same_label: dict[str, list[tuple[tuple, tuple]]] = {}
    ids, memo = {}, {}
    for i, bp in enumerate(pproc.branches):
        if bp.prefix.polarity != "!" or bp.prefix.target != q:
            continue
        for j, bq in enumerate(qproc.branches):
            if bq.prefix.polarity != "?" or bq.prefix.target != p or bq.prefix.label != bp.prefix.label:
                continue
            q_cont = substitute_value(bq.cont, bp.prefix.payload, bq.prefix.var)
            p_key, q_key = canon_process(bp.cont), canon_process(q_cont)
            conts = same_label.setdefault(bp.prefix.label, [])
            if conts:
                pair = (form_id(p_key, ids, memo), form_id(q_key, ids, memo))
                if any((form_id(pk, ids, memo), form_id(qk, ids, memo)) == pair for pk, qk in conts):
                    continue
            conts.append((p_key, q_key))
            step = Step(
                kind="comm",
                consumed=frozenset({p, q}),
                sender=p,
                receiver=q,
                label=bp.prefix.label,
                payload=bp.prefix.payload,
                sender_branch=i,
                receiver_branch=j,
            )
            out.append((step.sort_key(), step, {p: bp.cont, q: q_cont}, {p: p_key, q: q_key}))
    return out


def _transitions(r: Session) -> list[Transition]:
    """The enabled steps of the resolved session r in canonical order.  A
    step reads only the terms of the participants it consumes, so the steps
    of each conditional and of each sending pair are enumerated together."""
    out: list[Transition] = []
    choices = {}
    for p, proc in r.parts:
        if isinstance(proc, Choice):
            choices[p] = proc
        elif isinstance(proc, Cond) and isinstance(proc.guard, BoolVal):
            out += _cond_steps(p, proc)
    for p, pproc in choices.items():
        peers = []
        for b in pproc.branches:
            q = b.prefix.target
            if b.prefix.polarity == "!" and q != p and q in choices and q not in peers:
                peers.append(q)
                out += _comm_steps(p, pproc, q, choices[q])
    out.sort(key=itemgetter(0))
    return out


def enabled_steps(m: Session) -> list[Step]:
    """All enabled steps, deduplicated modulo structural congruence of the
    picked continuations (steps between the same participants with the same
    label and alpha-equal continuations are the same step)."""
    return [step for _, step, _, _ in _transitions(resolve(m))]


def apply_step(m: Session, step: Step) -> Session:
    """The session after step, which must be one of enabled_steps(m)."""
    r = resolve(m)
    for _, enabled, procs, _ in _transitions(r):
        if enabled == step:
            return r.with_parts(procs)
    raise McmpError("step is not enabled")


# ---------------------------------------------------------------------------
# observables


def has_success(m: Session) -> bool:
    """Some participant has a top-level unguarded success marker."""
    for _, p in m.parts:
        while isinstance(p, Rec):
            p = p.body
        if isinstance(p, Success):
            return True
    return False


def barbs(m: Session) -> set[Barb]:
    out: set[Barb] = set()
    for p, proc in resolve(m).parts:
        if not isinstance(proc, Choice):
            continue
        for b in proc.branches:
            pre = b.prefix
            if pre.polarity == "!":
                out.add(Barb("out", p, pre.target, pre.label, pre.payload))
            else:
                out.add(Barb("in", p, pre.target, pre.label))
    return out


def in_conflict(s1: Step, s2: Step) -> bool:
    return bool(s1.consumed & s2.consumed)


def distributable(s1: Step, s2: Step) -> bool:
    return s1 != s2 and not in_conflict(s1, s2)


def distributable_components(m: Session) -> list[Session]:
    """Finest decomposition: one component per participant."""
    return [Session(((name, proc),)) for name, proc in m.parts]


# ---------------------------------------------------------------------------
# exploration


@_record
class StateGraph(lts.Graph):
    @cached_property
    def congruence(self) -> list[int]:
        """congruence[i] == congruence[j] iff canon_session(states[i]) ==
        canon_session(states[j]): the distinct keys of the resolved states,
        numbered."""
        fid, classes = self.table.fid, {}
        return [classes.setdefault(tuple(fid[lid] for lid in lids), len(classes)) for _, lids in self.work]

    def to_dot(self) -> str:
        lines = ["digraph states {"]
        for i, s in enumerate(self.states):
            label = " | ".join(f"{n}<{render_process(p)}>" for n, p in s.parts if not isinstance(p, Nil)) or "done"
            shape = "doublecircle" if i in self.roots else "ellipse"
            lines.append(f'  s{i} [label="{_dot_escape(label)}", shape={shape}];')
        for s, step, d in self.edges:
            lines.append(f'  s{s} -> s{d} [label="{_dot_escape(step.describe())}"];')
        lines.append("}")
        return "\n".join(lines)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def explore(m: Session, max_states: int = DEFAULT_MAX_STATES, max_depth: int = DEFAULT_MAX_DEPTH) -> StateGraph:
    return explore_many([m], max_states=max_states, max_depth=max_depth)


def explore_many(ms: list[Session], max_states: int = DEFAULT_MAX_STATES, max_depth: int = DEFAULT_MAX_DEPTH) -> StateGraph:
    """Deterministic BFS over canonical states from one or more roots (see
    lts.Terms.explore).  A state is known by the fid of each participant's
    term, nil's for a participant that is nil or not in its root, so two
    states are one exactly when canon_session of the sessions that reached
    them, before resolution, is equal.  A state keeps its resolved terms,
    taken along the path that found it."""
    table = lts.Terms({p for m in ms for p in m.participants()}, canon_process, head_normal, _targets)
    names, term = table.names, table.term

    def changes(steps: list[Transition]):
        return [(sk, step, tuple((table.place[p], proc, table.fid_of(keys[p])) for p, proc in procs.items()))
                for sk, step, procs, keys in steps]

    def comm(k: int, lid: int, j: int, jlid: int):
        return changes(_comm_steps(names[k], term[lid], names[j], term[jlid]))

    def cond(k: int, lid: int):
        proc = term[lid]
        if isinstance(proc, Cond) and isinstance(proc.guard, BoolVal):
            return lts.memo(table.cache, (k, lid), lambda: changes(_cond_steps(names[k], proc)))
        return ()

    graph = table.explore([m.parts for m in ms], Nil(), comm, cond, Session, True, max_states, max_depth)
    return StateGraph(**vars(graph))


def _targets(proc: Process) -> list[str] | None:
    if isinstance(proc, Choice):
        return [b.prefix.target for b in proc.branches if b.prefix.polarity == "!"]
    return None


def is_convergent(graph: StateGraph) -> bool:
    """True iff the graph is acyclic (states are canonical, so any cycle is a
    real divergence)."""
    return not graph.complete("exploration for the convergence check").has_cycle()


def may_succeed(graph: StateGraph, i: int) -> bool:
    return any(has_success(graph.states[j]) for j in graph.reachable(i))


def must_succeed(graph: StateGraph, i: int) -> bool:
    """Every maximal path from i passes a success state.  Paths stop at
    success states, so a cycle that lies only behind one does not count."""
    graph.complete("exploration for must-succeed")

    def successors(j: int) -> list[tuple[Step, int]]:
        return [] if has_success(graph.states[j]) else graph.successors(j)

    order = lts.topological_order([i], successors)
    if order is None:
        raise McmpError("must-succeed requires a convergent subgraph")
    return all(successors(j) or has_success(graph.states[j]) for j in order)


def maximal_executions(m: Session, max_states: int = DEFAULT_MAX_STATES, max_depth: int = DEFAULT_MAX_DEPTH):
    """Number of maximal paths in the canonical graph and the terminal
    states; requires a finite convergent graph."""
    graph = explore(m, max_states=max_states, max_depth=max_depth).complete("exploration")
    order = lts.topological_order([graph.root], graph.successors)
    if order is None:
        raise McmpError("maximal executions undefined on divergent sessions")
    # the graph has one root, so every state in it is in the order
    counts = [1] * len(graph.work)
    for i in reversed(order):
        if graph.successors(i):
            counts[i] = sum(counts[j] for _, j in graph.successors(i))
    return counts[graph.root], [s for i, s in enumerate(graph.states) if not graph.successors(i)]


# ---------------------------------------------------------------------------
# weak reduction bisimulation


def weak_bisimilar(graph: StateGraph, i: int, j: int, observables: frozenset[str] = frozenset({"success"})) -> bool:
    classes = weak_bisim_classes(graph, observables)
    return classes[i] == classes[j]


def weak_bisim_classes(graph: StateGraph, observables: frozenset[str] = frozenset({"success"})) -> list[int]:
    """Greatest success-(and optionally barb-)respecting weak reduction
    bisimulation, via partition refinement over reachability.  The states
    of a strongly connected component reach the same states, so what they
    reach is gathered once per component, each after the components it
    leads to: observables as unions, classes as bitmasks."""
    graph.complete("exploration for bisimulation")
    components = lts.components(range(len(graph.work)), graph.successors)
    comp = [0] * len(graph.work)
    for c, members in enumerate(components):
        for i in members:
            comp[i] = c
    below = [{comp[j] for i in members for _, j in graph.successors(i)} - {c} for c, members in enumerate(components)]

    def gather(own, join):
        """own(c) joined with the gathered value of every component below c."""
        out = []
        for c in range(len(components)):
            value = own(c)
            for d in below[c]:
                value = join(value, out[d])
            out.append(value)
        return out

    def ranks(keys: list) -> list[int]:
        """Each key's place among the distinct keys in sorted order."""
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        return [rank[k] for k in keys]

    keys: list[list] = [[] for _ in components]
    if "success" in observables:
        success = gather(lambda c: any(has_success(graph.states[i]) for i in components[c]), bool.__or__)
        for key, flag in zip(keys, success):
            key.append(flag)
    if "barbs" in observables:
        weak = gather(lambda c: {b.describe() for i in components[c] for b in barbs(graph.states[i])}, set.union)
        for key, seen in zip(keys, weak):
            key.append(tuple(sorted(seen)))
    classes = ranks([tuple(keys[c]) for c in comp])
    while True:
        # the classes each component reaches, as a bitmask; a signature is
        # compared as the sorted tuple of its classes
        reached = gather(lambda c: sum({1 << classes[i] for i in components[c]}), int.__or__)
        tuples = {mask: tuple(k for k in range(mask.bit_length()) if mask >> k & 1) for mask in set(reached)}
        refined = ranks([(classes[i], tuples[reached[comp[i]]]) for i in range(len(comp))])
        if refined == classes:
            return classes
        classes = refined
