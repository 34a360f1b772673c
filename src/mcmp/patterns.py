"""Detection of the synchronisation patterns M and star, and electoral-system
checking for symmetric networks.

A witness for M is a triple of steps a, b, c with pairwise different
successors where b conflicts with both a and c while a and c are
distributable.  A star is five steps in an odd conflict cycle whose
non-neighbouring pairs are distributable.

The detectors test that a .cmv program's steps reach pairwise different
states, by the form_id numbers of their successors' cmv_canon forms, which
do not name components.  For a session the conflict checks imply it.  A
step replaces each consumed participant's resolved term by a smaller one
or nil, so steps with different consumed sets reach sessions that are not
structurally congruent; and two steps with equal consumed sets conflict
with each other and with the same steps, which no two steps of an M triple
or a star cycle do.
"""

from __future__ import annotations

import itertools

from . import lts, semantics
from .semantics import Step, explore
from .syntax import McmpError, Session, _record, form_id

lcmv = None  # imported by _cmv_alternatives for the first lcmv program, not per call


@_record(frozen=True)
class PatternWitness:
    kind: str  # 'm' or 'star'
    steps: tuple[str, ...]
    # per step, the participants it consumes (component positions for lcmv)
    consumed: tuple[tuple[str | int, ...], ...]
    conflict_edges: tuple[tuple[int, int], ...]


def _cmv_alternatives(p: lcmv.CmvProcess):
    global lcmv
    if lcmv is None:
        from . import lcmv
    return [(step.describe(), step.consumed, lcmv.cmv_canon(succ)) for step, succ in lcmv.cmv_enabled(p)]


def _alternatives(term):
    if isinstance(term, Session):
        return [(step.describe(), step.consumed) for step in semantics.enabled_steps(term)]
    return _cmv_alternatives(term)


def _numbered(alts: list) -> list:
    """alts as (description, consumed, successor number) triples: a .cmv
    step's successor form numbered in one form_id numbering, a session's
    step by its position (see the module docstring)."""
    ids, memo = {}, {}
    return [(alt[0], alt[1], form_id(alt[2], ids, memo) if len(alt) == 3 else k) for k, alt in enumerate(alts)]


def detect_m(term) -> PatternWitness | None:
    """First M witness among the root's enabled steps, in canonical step
    order; accepts sessions and lcmv programs.  The steps' different
    successors are tested for an lcmv program and implied for a session."""
    alts = sorted(_alternatives(term))
    n = len(alts)
    if n < 3:
        return None
    alts = _numbered(alts)
    for b in range(n):
        for a in range(n):
            if a == b:
                continue
            for c in range(a + 1, n):
                if c == b:
                    continue
                da, db, dc = alts[a], alts[b], alts[c]
                if len({da[2], db[2], dc[2]}) != 3:
                    continue
                if not (da[1] & db[1]) or not (db[1] & dc[1]):
                    continue
                if da[1] & dc[1]:
                    continue
                return PatternWitness(
                    "m",
                    (da[0], db[0], dc[0]),
                    (tuple(sorted(da[1])), tuple(sorted(db[1])), tuple(sorted(dc[1]))),
                    ((0, 1), (1, 2)),
                )
    return None


def detect_star(term) -> PatternWitness | None:
    """First star witness: five steps with pairwise different successors in
    an odd conflict cycle, non-neighbours distributable (as in detect_m)."""
    alts = sorted(_alternatives(term))
    n = len(alts)
    if n < 5:
        return None
    alts = _numbered(alts)
    for combo in itertools.combinations(range(n), 5):
        group = [alts[k] for k in combo]
        if len({g[2] for g in group}) != 5:
            continue
        for perm in _cycle_orders():
            ordered = [group[k] for k in perm]
            if _is_star_cycle(ordered):
                return PatternWitness(
                    "star",
                    tuple(g[0] for g in ordered),
                    tuple(tuple(sorted(g[1])) for g in ordered),
                    tuple((i, (i + 1) % 5) for i in range(5)),
                )
    return None


def _cycle_orders():
    # distinct cyclic orders of 5 elements, first element pinned
    for rest in itertools.permutations(range(1, 5)):
        if rest[0] < rest[-1]:  # quotient out reflections
            yield (0,) + rest


def _is_star_cycle(group) -> bool:
    for i in range(5):
        for j in range(i + 1, 5):
            neighbours = (j - i) in (1, 4)
            conflict = bool(group[i][1] & group[j][1])
            if neighbours != conflict:
                return False
    return True


# what the maximal paths from a state announce is kept up to "two or
# more": no leader, one leader (which), or _SEVERAL
_SEVERAL = "several"


def _join(seen: frozenset[str], outcome):
    """The outcome of a path that announces seen before one with outcome."""
    if outcome == _SEVERAL or len(seen | outcome) > 1:
        return _SEVERAL
    return seen | outcome


def is_electoral(
    m: Session,
    station: str,
    label: str,
    max_states: int = semantics.DEFAULT_MAX_STATES,
    max_depth: int = semantics.DEFAULT_MAX_DEPTH,
):
    """True iff every maximal execution unguards exactly one announcement
    barb (an output toward the station with the given label) across its
    states.  Returns (flag, counterexample path or None); the counterexample
    is the first failing path of a depth-first walk that tries a state's
    last successor first."""
    return is_electoral_graph(explore(m, max_states=max_states, max_depth=max_depth), station, label)


def is_electoral_graph(graph: semantics.StateGraph, station: str, label: str):
    """is_electoral on the explored state graph of the session."""
    graph.complete("exploration for the electoral check")
    order = lts.topological_order([graph.root], graph.successors)
    if order is None:
        raise McmpError("electoral check needs a convergent session")

    def announcers(i: int) -> frozenset[str]:
        return frozenset(
            b.participant
            for b in semantics.barbs(graph.states[i])
            if b.kind == "out" and b.peer == station and b.label == label
        )

    # outcomes[i] holds the outcomes of the maximal paths from i: at most
    # one per participant, plus no leader and _SEVERAL
    outcomes: dict[int, set] = {}
    for i in reversed(order):
        here = announcers(i)
        below = set().union(*(outcomes[j] for _, j in graph.successors(i))) or {frozenset()}
        outcomes[i] = {_join(here, o) for o in below}

    def can_fail(seen: frozenset[str], i: int) -> bool:
        return any(_join(seen, o) in (_SEVERAL, frozenset()) for o in outcomes[i])

    i, path, seen = graph.root, [], announcers(graph.root)
    if not can_fail(seen, i):
        return True, None
    while graph.successors(i):
        step, i = next((step, j) for step, j in reversed(graph.successors(i)) if can_fail(seen, j))
        path.append(step.describe())
        seen |= announcers(i)
    return False, {"path": path, "announcers": sorted(seen)}
