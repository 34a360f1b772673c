"""The labelled transition system kernel: one deterministic breadth-first
exploration, shared by the session, context and lcmv explorers, and the
graph walks their checks need.

A state is known by a key the caller supplies (a canonical form).  The
caller's step(state, work) lists a state's transitions as (label, key of
the successor, seed); its build(seed, key) makes the state for a key not
seen before, with the work step needs of it later (such as its key after
unfolding).  Successors whose key is already known are never built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .syntax import McmpError

DEFAULT_MAX_STATES = 10000  # the bounds a command explores within unless given others
DEFAULT_MAX_DEPTH = 256


class TruncatedError(McmpError):
    pass


def _bfs(starts, successors):
    """Each node reachable from starts once, as (node, depth), in
    breadth-first order; successors(node) lists its (label, node) edges
    and is called after node is yielded."""
    depth = dict.fromkeys(starts, 0)
    queue = deque(depth)
    while queue:
        i = queue.popleft()
        d = depth[i]
        yield i, d
        for _, j in successors(i):
            if j not in depth:
                depth[j] = d + 1
                queue.append(j)


@dataclass
class Graph:
    """States numbered in discovery order, edges in the order found."""

    states: list
    edges: list[tuple[int, object, int]]
    roots: list[int]
    truncated: bool
    _succ: list[list[tuple[object, int]]]
    # _parent[i] is (the state whose expansion found i, that edge's label)
    _parent: list[tuple[int, object] | None]

    @property
    def root(self) -> int:
        return self.roots[0]

    def successors(self, i: int) -> list[tuple[object, int]]:
        return self._succ[i]

    def reachable(self, i: int) -> list[int]:
        """The states reachable from i, i first, in breadth-first order."""
        return [j for j, _ in _bfs([i], self.successors)]

    def distance(self, i: int, accept) -> int | None:
        """The fewest steps from i to a state accept holds of, or None."""
        for j, d in _bfs([i], self.successors):
            if accept(j):
                return d
        return None

    def path(self, i: int) -> list:
        """The labels of the path by which the exploration found i; it is
        breadth-first, so no path from a root to i is shorter."""
        labels = []
        while self._parent[i] is not None:
            i, label = self._parent[i]
            labels.append(label)
        return labels[::-1]

    def has_cycle(self, i: int | None = None) -> bool:
        """Some cycle is reachable from i (from anywhere when i is None)."""
        starts = range(len(self.states)) if i is None else [i]
        return topological_order(starts, self.successors) is None


def topological_order(starts, successors) -> list | None:
    """The nodes reachable from starts, each before every node it leads to,
    or None when a cycle is reachable; successors(node) lists its (label,
    node) edges.  Peeling off nodes that no unpeeled node leads to (Kahn's
    algorithm) leaves exactly the nodes on or behind a cycle."""
    indegree = {n: 0 for n, _ in _bfs(starts, successors)}
    for n in indegree:
        for _, j in successors(n):
            indegree[j] += 1
    peeled = [n for n, k in indegree.items() if k == 0]
    for n in peeled:  # grows while it is walked
        for _, j in successors(n):
            indegree[j] -= 1
            if indegree[j] == 0:
                peeled.append(j)
    return peeled if len(peeled) == len(indegree) else None


def memo(cache: dict | None, key, compute, *terms):
    """compute(*terms), memoised in cache under key when a cache is given.

    Explorers keep one cache per exploration and key a pair's steps by the
    participants' names and the ids of their terms.  A key is stored only
    the second time it is met: along chains and loops no pair recurs, and
    storing every first sight kept each known successor's terms alive for
    nothing.  A stored entry holds terms, so no id in its key is reused
    while it lives."""
    if cache is None:
        return compute(*terms)
    entry = cache.get(key)
    if entry:
        return entry[1]
    value = compute(*terms)
    cache[key] = () if entry is None else (terms, value)
    return value


def explore(roots, step, build, max_states: int | None = None, max_depth: int | None = None) -> Graph:
    """Breadth-first exploration from roots, given as (key, seed) pairs;
    roots with equal keys are one state.  Past max_states states, edges to
    new states are dropped, and states max_depth steps from the roots are
    not expanded; either cut marks the graph truncated, the depth bound only
    when such a state has a successor.  Roots that do not fit in max_states
    raise TruncatedError."""
    if any(bound is not None and bound <= 0 for bound in (max_states, max_depth)):
        raise ValueError("exploration limits must be positive")
    index: dict = {}
    states: list = []
    work: list = []
    succ: list[list[tuple[object, int]]] = []
    parent: list[tuple[int, object] | None] = []
    edges: list[tuple[int, object, int]] = []
    truncated = False

    def intern(key, seed, via: tuple[int, object] | None) -> int | None:
        nonlocal truncated
        if max_states is not None and len(states) >= max_states:
            truncated = True
            return None
        index[key] = len(states)
        state, aux = build(seed, key)
        states.append(state)
        work.append(aux)
        succ.append([])
        parent.append(via)
        return len(states) - 1

    root_ids = []
    for key, seed in roots:
        i = index.get(key)
        if i is None:
            i = intern(key, seed, None)
        if i is None:
            raise TruncatedError("state budget exhausted while interning roots")
        root_ids.append(i)

    def expand(i: int) -> list[tuple[object, int]]:
        for label, key, seed in step(states[i], work[i]):
            j = index.get(key)
            if j is None:
                j = intern(key, seed, (i, label))
                if j is None:
                    continue
            edges.append((i, label, j))
            succ[i].append((label, j))
        return succ[i]

    for i, depth in _bfs(root_ids, expand):
        if max_depth is not None and depth >= max_depth and step(states[i], work[i]):
            truncated = True
            break
    return Graph(states, edges, root_ids, truncated, succ, parent)
