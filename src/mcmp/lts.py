"""The labelled transition system kernel: one deterministic breadth-first
exploration, shared by the session, context and lcmv explorers, and the
graph walks their checks need.

A state is known by a key the caller supplies (a canonical form).  The
caller's build(seed, key) makes the work of a state whose key was not seen
before: what its step(work) needs to list the state's transitions as
(label, key of the successor, seed).  Successors whose key is already known
are never built.  The work is the state itself, unless a view(work) makes
the state object when the graph's states are first read.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

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


class Terms:
    """The terms of one exploration, numbered twice: a term gets a dense lid
    by object identity, and each distinct canonical form canon(term) a dense
    fid, so two terms have the same fid exactly when their forms are equal.
    Each participant of names has a place, in sorted-name order, and a state
    is the lid of the term at each place.  Once per lid, the table unfolds
    the term to its head (head(term), which returns a term that needs no
    unfolding as it is) and lists the places of the participants the head
    sends to (targets(head), None when the head is not a choice).  The
    table holds every term it numbers, so no id is reused while it lives;
    explorers intern only the terms of the states they keep."""

    def __init__(self, names, canon, head, targets):
        self.names = sorted(names)
        self.place = {p: k for k, p in enumerate(self.names)}
        self.term: list = []  # lid -> term
        self.fid: list[int] = []  # lid -> the fid of its form
        self.head: list[int] = []  # lid -> the lid of its head
        self.peers: list[tuple | None] = []  # lid -> the places its head sends to, or None
        self.cache: dict = {}  # pair steps (see memo), keyed by every pair that met
        self._lids: dict[int, int] = {}
        self._fids: dict = {}
        self._shared: dict[tuple, tuple] = {}  # one copy of each equal tuple of places
        self._canon, self._head, self._targets = canon, head, targets

    def fid_of(self, form) -> int:
        fid = self._fids.get(form)
        if fid is None:
            fid = self._fids[form] = len(self._fids)
        return fid

    def lid(self, term, fid: int | None = None) -> int:
        """term's lid; fid, when given, is the fid of its form."""
        lid = self._lids.get(id(term))
        if lid is None:
            lid = self._lids[id(term)] = len(self.term)
            self.term.append(term)
            self.fid.append(self.fid_of(self._canon(term)) if fid is None else fid)
            self.head.append(lid)
            self.peers.append(None)
            head = self._head(term)
            if head is not term:
                self.head[lid] = self.lid(head)
                self.peers[lid] = self.peers[self.head[lid]]
            elif (targets := self._targets(term)) is not None:
                peers = tuple(dict.fromkeys(self.place[q] for q in targets if q in self.place))
                self.peers[lid] = self._shared.setdefault(peers, peers)
        return lid

    def steps(self, lids: tuple, pair, single=None) -> list:
        """The steps of the state whose places hold lids, in sort key order,
        each as (sort key, label, ((place, new term, its fid), ...)).
        pair(k, lid, j, jlid) lists those in which the head at place k sends
        to the choice at place j, once per exploration (see memo), and
        single(k, lid) those of a head at k that is not a choice."""
        out = []
        peer_of = self.peers
        for k, lid in enumerate(lids):
            peers = peer_of[lid]
            if peers is None:
                if single is not None:
                    out += single(k, lid)
                continue
            for j in peers:
                jlid = lids[j]
                if j != k and peer_of[jlid] is not None:
                    out += memo(self.cache, (k, lid, j, jlid), pair, k, lid, j, jlid)
        out.sort(key=itemgetter(0))
        return out

    def explore(self, roots, blank, pair, single, make, heads: bool, max_states, max_depth) -> Graph:
        """Breadth-first exploration (see explore) from roots, each given by
        its (name, term) parts; blank fills the places of the participants a
        root lacks.  A state is known by the fid at each place, and its work
        is (its root's (name, place) pairs in their order, the lid at each
        place along the path that found it): the term that reached the
        place, or that term's head when heads is set.  A step (see steps)
        changes only the places it names; make(parts) makes the state."""
        fid = self.fid
        absent = self.lid(blank)

        def transitions(work):
            key = [fid[lid] for lid in work[1]]
            found = []
            for _, label, new in self.steps(work[1], pair, single):
                succ = key.copy()
                for k, _, f in new:
                    succ[k] = f
                found.append((label, tuple(succ), (work, new)))
            return found

        def build(seed, key: tuple):
            (order, lids), new = seed
            lids = list(lids)
            for k, term, f in new:
                lid = self.lid(term, f)
                lids[k] = self.head[lid] if heads else lid
            return order, tuple(lids)

        def view(work):
            order, lids = work
            return make(tuple((p, self.term[lids[k]]) for p, k in order))

        starts = []
        for parts in roots:
            new = tuple((self.place[p], term, fid[self.lid(term)]) for p, term in parts)
            key = [fid[absent]] * len(self.names)
            for k, _, f in new:
                key[k] = f
            order = tuple((p, self.place[p]) for p, _ in parts)
            starts.append((tuple(key), ((self._shared.setdefault(order, order), (absent,) * len(key)), new)))
        graph = explore(starts, transitions, build, max_states, max_depth, view)
        # the table interns no more: keep only what the graph and its checks
        # read, of the cache its keys
        self._lids = self._fids = self._shared = None
        self.cache = dict.fromkeys(self.cache)
        return graph


class States(Sequence):
    """A graph's state objects, each made by view from its work when it is
    first read; len() makes none."""

    def __init__(self, work: list, view):
        self._work, self._view = work, view
        self._made: list = [None] * len(work)

    def __len__(self) -> int:
        return len(self._work)

    def __getitem__(self, i: int):
        state = self._made[i]  # IndexError past the end ends iteration
        if state is None:
            state = self._made[i] = self._view(self._work[i])
        return state

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def __add__(self, other) -> list:
        return list(self) + list(other)

    def __radd__(self, other) -> list:
        return list(other) + list(self)

    __hash__ = None


@dataclass
class Graph:
    """States numbered in discovery order, edges in the order found."""

    states: Sequence
    edges: list[tuple[int, object, int]]
    roots: list[int]
    truncated: bool
    _succ: list[list[tuple[object, int]]]
    # _parent[i] is (the state whose expansion found i, that edge's label)
    _parent: list[tuple[int, object] | None]
    work: list  # work[i] is what build made for state i

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

    def coreachable(self, accept) -> list[bool]:
        """For each state, whether a state accept holds of is reachable from
        it: one breadth-first pass backwards over the edges."""
        preds: list[list[tuple[object, int]]] = [[] for _ in self.work]
        for i, label, j in self.edges:
            preds[j].append((label, i))
        hit = [False] * len(preds)
        for i, _ in _bfs([i for i in range(len(preds)) if accept(i)], preds.__getitem__):
            hit[i] = True
        return hit

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


def components(starts, successors) -> list[list]:
    """The strongly connected components of the nodes reachable from starts,
    each after every component it leads to, by one iterative pass of
    Tarjan's algorithm; successors(node) lists its (label, node) edges."""
    index: dict = {}
    low: dict = {}
    at: dict = {}  # a node's place on the stack, while it is there
    stack: list = []
    out: list[list] = []
    for root in starts:
        todo = [] if root in index else [(root, None)]
        while todo:
            v, edges = todo.pop()
            if edges is None:  # v is met for the first time
                index[v] = low[v] = len(index)
                at[v] = len(stack)
                stack.append(v)
                edges = iter(successors(v))
            for _, w in edges:
                if w not in index:
                    todo += ((v, edges), (w, None))
                    break
                if w in at and index[w] < low[v]:
                    low[v] = index[w]
            else:
                if todo and low[v] < low[todo[-1][0]]:
                    low[todo[-1][0]] = low[v]
                if low[v] == index[v]:
                    out.append(stack[at[v]:])
                    del stack[at[v]:]
                    for w in out[-1]:
                        del at[w]
    return out


def topological_order(starts, successors) -> list | None:
    """The nodes reachable from starts, each before every node it leads to,
    or None when a cycle is reachable; successors(node) lists its (label,
    node) edges."""
    order = []
    for c in reversed(components(starts, successors)):
        if len(c) > 1 or any(j == c[0] for _, j in successors(c[0])):
            return None
        order.append(c[0])
    return order


def memo(cache: dict | None, key, compute, *terms):
    """compute(*terms), memoised in cache under key when a cache is given.

    Explorers keep one cache per exploration and key a pair's steps by the
    participants' places and the lids of their terms (see Terms).  A key is
    stored only the second time it is met: along chains and loops no pair
    recurs, and storing every first sight kept each known successor's terms
    alive for nothing."""
    if cache is None:
        return compute(*terms)
    entry = cache.get(key)
    if entry:
        return entry[1]
    value = compute(*terms)
    cache[key] = () if entry is None else (terms, value)
    return value


def explore(roots, step, build, max_states: int | None = None, max_depth: int | None = None, view=None) -> Graph:
    """Breadth-first exploration from roots, given as (key, seed) pairs;
    roots with equal keys are one state.  Past max_states states, edges to
    new states are dropped, and states max_depth steps from the roots are
    not expanded; either cut marks the graph truncated, the depth bound only
    when such a state has a successor.  Roots that do not fit in max_states
    raise TruncatedError."""
    if any(bound is not None and bound <= 0 for bound in (max_states, max_depth)):
        raise ValueError("exploration limits must be positive")
    index: dict = {}
    work: list = []
    succ: list[list[tuple[object, int]]] = []
    parent: list[tuple[int, object] | None] = []
    edges: list[tuple[int, object, int]] = []
    truncated = False

    def intern(key, seed, via: tuple[int, object] | None) -> int | None:
        nonlocal truncated
        if max_states is not None and len(work) >= max_states:
            truncated = True
            return None
        index[key] = len(work)
        work.append(build(seed, key))
        succ.append([])
        parent.append(via)
        return len(work) - 1

    root_ids = []
    for key, seed in roots:
        i = index.get(key)
        if i is None:
            i = intern(key, seed, None)
        if i is None:
            raise TruncatedError("state budget exhausted while interning roots")
        root_ids.append(i)

    def expand(i: int) -> list[tuple[object, int]]:
        for label, key, seed in step(work[i]):
            j = index.get(key)
            if j is None:
                j = intern(key, seed, (i, label))
                if j is None:
                    continue
            edges.append((i, label, j))
            succ[i].append((label, j))
        return succ[i]

    for i, depth in _bfs(root_ids, expand):
        if max_depth is not None and depth >= max_depth and step(work[i]):
            truncated = True
            break
    states = work if view is None else States(work, view)
    return Graph(states, edges, root_ids, truncated, succ, parent, work)
