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

from functools import cached_property
from operator import itemgetter

from .syntax import McmpError, _record, form_id

DEFAULT_MAX_STATES = 10000  # the bounds a command explores within unless given others
DEFAULT_MAX_DEPTH = 256


class TruncatedError(McmpError):
    pass


def _bfs(starts, successors):
    """Each node reachable from starts once, as (node, depth), in
    breadth-first order; successors(node) lists its (label, node) edges
    and is called after node is yielded."""
    depth = dict.fromkeys(starts, 0)
    order = list(depth)
    for i in order:  # nodes are appended as they are found
        yield i, depth[i]
        for _, j in successors(i):
            if j not in depth:
                depth[j] = depth[i] + 1
                order.append(j)


class Terms:
    """The terms of one exploration, numbered twice: a term gets a dense lid
    by object identity, and each distinct canonical form canon(term) a fid
    (syntax.form_id), so two terms have the same fid exactly when their
    forms are equal.  Each participant of names has a place, in sorted-name
    order, and a state is the lid of the term at each place.  Once per lid,
    the table unfolds the term to its head (head(term), which returns a term
    that needs no unfolding as it is) and lists the places of the
    participants the head sends to (targets(head), None when the head is not
    a choice).  The table holds every term it numbers, so no id is reused
    while it lives; explorers intern only the terms of the states they keep."""

    def __init__(self, names, canon, head, targets):
        self.names = sorted(names)
        self.place = {p: k for k, p in enumerate(self.names)}
        self.term: list = []  # lid -> term
        self.fid: list[int] = []  # lid -> the fid of its form
        self.head: list[int] = []  # lid -> the lid of its head
        self.peers: list[tuple | None] = []  # lid -> the places its head sends to, or None
        self.cache: dict = {}  # pair steps (see memo), keyed by every pair that met
        self._lids: dict[int, int] = {}
        self._fids: dict[tuple, int] = {}  # a form's key -> its fid (see syntax.form_id)
        self._memo: dict[int, tuple] = {}  # id(form) -> (form, its fid), for every form and subform met
        self._shared: dict[tuple, tuple] = {}  # one copy of each equal tuple of places
        self._canon, self._head, self._targets = canon, head, targets

    def fid_of(self, form) -> int:
        """form's fid, its number by syntax.form_id over the table's forms."""
        return form_id(form, self._fids, self._memo)

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

    def explore(self, roots, blank, pair, single, make, heads: bool, max_states, max_depth, stop=None) -> Graph:
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
        graph = explore(starts, transitions, build, max_states, max_depth, view, stop)
        graph.table = self
        # the table interns no more: keep only what the graph reads
        self._lids = self._fids = self._memo = self._shared = self.cache = None
        return graph


@_record
class Graph:
    """What an exploration found, states numbered in discovery order.  The
    state objects are made on first read and kept; the edge list is made
    from the successor lists when read."""

    work: list  # work[i] is what build made for state i
    _succ: list[list[tuple[object, int]]]  # state i's (label, state) edges, in the order found
    # _parent[i] is (the state whose expansion found i, that edge's label)
    _parent: list[tuple[int, object] | None]
    roots: list[int]
    truncated: str | None  # the bound that cut the run first, "states" or "depth"; None if none did
    view: object = None  # makes state i from work[i]; without one, the work is the state
    table: Terms | None = None  # the term table of a table-driven exploration

    @cached_property
    def states(self) -> list:
        """State i is view(work[i])."""
        return self.work if self.view is None else [self.view(w) for w in self.work]

    @property
    def edges(self) -> list[tuple[int, object, int]]:
        """Every edge as (state, label, state), in the order found."""
        return [(i, label, j) for i, succ in enumerate(self._succ) for label, j in succ]

    @property
    def root(self) -> int:
        return self.roots[0]

    def complete(self, what: str) -> Graph:
        """self when no bound cut the exploration short.  Otherwise raises
        TruncatedError naming what was explored and the bound: a state cut
        off lacks some or all of its successors, so a check would read it as
        stuck or unsafe."""
        if self.truncated:
            raise TruncatedError(f"{what} truncated by the {self.truncated} bound")
        return self

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
        for i, succ in enumerate(self._succ):
            for label, j in succ:
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
        starts = range(len(self.work)) if i is None else [i]
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


def memo(cache: dict, key, compute, *terms):
    """compute(*terms), memoised in cache under key.

    Explorers keep one cache per exploration and key a pair's steps by the
    participants' places and the lids of their terms (see Terms).  A key is
    stored only the second time it is met: along chains and loops no pair
    recurs, and storing every first sight kept each known successor's terms
    alive for nothing."""
    entry = cache.get(key)
    if entry:
        return entry[1]
    value = compute(*terms)
    cache[key] = () if entry is None else (terms, value)
    return value


def explore(roots, step, build, max_states: int | None = None, max_depth: int | None = None, view=None, stop=None) -> Graph:
    """Breadth-first exploration from roots, given as (key, seed) pairs;
    roots with equal keys are one state.  Past max_states states, edges to
    new states are dropped, and states max_depth steps from the roots are
    not expanded; either cut marks the graph truncated, the depth bound only
    when such a state has a step.  So the steps of a state at the depth
    bound are listed only until the graph is marked truncated.  Roots
    that do not fit in max_states raise TruncatedError.  stop(i, work[i],
    the steps of i), when given, is called for each state added, before any
    bound acts on it, and ends the run, leaving the graph not whole, at the
    first state it holds of; discovery order does not depend on the bounds."""
    if any(bound is not None and bound <= 0 for bound in (max_states, max_depth)):
        raise ValueError("exploration limits must be positive")
    index: dict = {}
    work: list = []
    for key, seed in roots:
        if key not in index:
            if max_states is not None and len(work) >= max_states:
                raise TruncatedError("the roots do not fit in the states bound")
            index[key] = len(work)
            work.append(build(seed, key))
    root_ids = [index[key] for key, _ in roots]
    succ: list[list[tuple[object, int]]] = [[] for _ in work]
    parent: list[tuple[int, object] | None] = [None] * len(work)
    depth = [0] * len(work)  # steps from the roots
    truncated = None
    # the loop meets the states appended as it runs: they are numbered as
    # they are found, which is breadth-first order
    for i, w in enumerate(work):
        at_bound = max_depth is not None and depth[i] >= max_depth
        if at_bound and truncated and stop is None:
            break  # every later state is at the bound too, and nothing reads its steps
        found = step(w)
        if stop is not None and stop(i, w, found):
            break
        if at_bound:
            truncated = truncated or ("depth" if found else None)
            continue
        for label, key, seed in found:
            j = index.get(key)
            if j is None:
                if max_states is not None and len(work) >= max_states:
                    truncated = "states"
                    continue
                j = index[key] = len(work)
                work.append(build(seed, key))
                succ.append([])
                parent.append((i, label))
                depth.append(depth[i] + 1)
            succ[i].append((label, j))
    return Graph(work, succ, parent, root_ids, truncated, view)
