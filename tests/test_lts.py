"""The exploration kernel and its graph walks, on hand-written transition
functions over integer states (each state is its own key)."""

import random
import sys

import pytest

from mcmp import lts, semantics, syntax


def explore(successors, roots=(0,), **bounds):
    """Explore from roots, where successors(s) lists the states s steps to;
    an edge's label is the pair (s, t).  Also returns the keys build was
    called for, in order.  The graph's edges are its successor lists, in
    order."""
    built = []

    def step(s):
        return [((s, t), t, t) for t in successors(s)]

    def build(seed, key):
        assert seed == key
        built.append(key)
        return seed

    g = lts.explore([(r, r) for r in roots], step, build, **bounds)
    assert g.edges == [(i, label, j) for i in range(len(g.work)) for label, j in g.successors(i)]
    return g, built


def pairs(g):
    """The edges as (from state, to state)."""
    return [(g.states[i], g.states[j]) for i, _, j in g.edges]


N = 10_000


def chain(n):
    return lambda s: [s + 1] if s + 1 < n else []


def test_chain_deeper_than_the_recursion_limit():
    assert N > sys.getrecursionlimit()
    g, built = explore(chain(N))
    assert g.states == list(range(N)) and built == list(range(N))
    assert g.truncated is None
    assert g.reachable(0) == list(range(N))
    assert g.reachable(N - 1) == [N - 1]
    assert g.distance(0, lambda j: g.states[j] == N - 1) == N - 1
    assert g.distance(0, lambda j: True) == 0
    assert g.distance(5, lambda j: g.states[j] == 2) is None
    assert not g.has_cycle() and not g.has_cycle(0) and not g.has_cycle(N // 2)
    assert g.path(N - 1) == [(s, s + 1) for s in range(N - 1)]


def test_cycle_at_the_far_end():
    # 0 -> -1 -> -2 is a dead end beside the long chain 0 -> 1 -> ... -> N-1,
    # whose last state steps back to N-100
    def successors(s):
        if s == 0:
            return [1, -1]
        if s < 0:
            return [s - 1] if s > -2 else []
        return [s + 1] if s + 1 < N else [N - 100]

    g, _ = explore(successors)
    index = {s: i for i, s in enumerate(g.states)}
    assert g.has_cycle() and g.has_cycle(index[0]) and g.has_cycle(index[N - 50])
    assert not g.has_cycle(index[-1])
    assert sorted(g.states[j] for j in g.reachable(index[N - 1])) == list(range(N - 100, N))
    assert g.distance(index[N - 1], lambda j: g.states[j] == N - 2) == 99
    assert g.distance(index[N - 1], lambda j: g.states[j] == 0) is None


def test_self_loop():
    g, _ = explore(lambda s: [s])
    assert g.states == [0] and pairs(g) == [(0, 0)] and g.successors(0) == [((0, 0), 0)]
    assert g.has_cycle() and g.has_cycle(0)
    assert g.reachable(0) == [0]
    assert g.path(0) == []


def test_roots_that_share_states():
    # 5 is a root and also reached from the root 0; the repeated root 0 is
    # one state
    g, built = explore(chain(10), roots=(0, 5, 0))
    assert g.roots == [0, 1, 0] and g.root == 0
    assert g.states == [0, 5, 1, 6, 2, 7, 3, 8, 4, 9]
    assert sorted(built) == list(range(10))
    assert (4, 5) in pairs(g)
    assert g.path(g.states.index(5)) == []
    assert g.path(g.states.index(9)) == [(5, 6), (6, 7), (7, 8), (8, 9)]
    assert g.path(g.states.index(4)) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_max_states_cuts_successors():
    # a binary tree whose every state also steps back to 0
    g, built = explore(lambda s: [2 * s + 1, 2 * s + 2, 0], max_states=5)
    assert g.truncated == "states"
    assert g.states == [0, 1, 2, 3, 4] and built == [0, 1, 2, 3, 4]
    # edges to known states stay, edges to states past the budget go
    assert pairs(g) == [(0, 1), (0, 2), (0, 0), (1, 3), (1, 4), (1, 0), (2, 0), (3, 0), (4, 0)]


def test_max_states_cuts_roots():
    with pytest.raises(lts.TruncatedError, match="states bound"):
        explore(chain(10), roots=(0, 1, 2), max_states=2)
    g, _ = explore(chain(10), roots=(0, 0, 1), max_states=2)
    assert g.roots == [0, 0, 1] and g.states == [0, 1] and g.truncated == "states"


def test_max_depth_cut():
    g, _ = explore(chain(10), max_depth=3)
    # the states 3 steps away are found but not expanded
    assert g.states == [0, 1, 2, 3] and g.truncated == "depth"
    assert g.successors(3) == []
    g, _ = explore(chain(4), max_depth=4)
    assert g.states == [0, 1, 2, 3] and g.truncated is None


def test_the_first_bound_that_cuts_is_named():
    # the state bound drops 2, found from the root; then 1, one step deep,
    # has successors at the depth bound
    g, _ = explore(lambda s: [2 * s + 1, 2 * s + 2], max_states=2, max_depth=1)
    assert g.states == [0, 1] and g.truncated == "states"
    with pytest.raises(lts.TruncatedError, match="^the search truncated by the states bound$"):
        g.complete("the search")
    g, _ = explore(lambda s: [2 * s + 1, 2 * s + 2], max_states=3, max_depth=1)
    assert g.states == [0, 1, 2] and g.truncated == "depth"
    with pytest.raises(lts.TruncatedError, match="^the search truncated by the depth bound$"):
        g.complete("the search")
    g, _ = explore(chain(3))
    assert g.complete("the search") is g


def test_max_depth_reached_by_a_final_state_does_not_cut():
    # state 3 lies exactly 3 steps deep and has no successor
    g, _ = explore(chain(4), max_depth=3)
    assert g.states == [0, 1, 2, 3] and g.truncated is None
    # a state at the bound with a successor, even a known one, cuts
    g, _ = explore(lambda s: [s + 1] if s < 3 else [0], max_depth=3)
    assert g.states == [0, 1, 2, 3] and g.truncated == "depth" and g.successors(3) == []
    # the bound is checked for every state at it, not only the first
    g, _ = explore(lambda s: {0: [1, 2], 2: [3]}.get(s, []), max_depth=1)
    assert g.states == [0, 1, 2] and g.truncated == "depth"


def test_steps_at_the_depth_bound_are_listed_until_the_cut_is_known():
    # the root steps to 100 states at the bound, each with a successor: the
    # first of them marks the graph truncated, and the other 99 go unlisted
    listed = []

    def successors(s):
        listed.append(s)
        return list(range(1, 101)) if s == 0 else [s + 100]

    g, _ = explore(successors, max_depth=1)
    assert listed == [0, 1] and g.truncated == "depth"
    assert g.states == list(range(101)) and all(g.successors(i) == [] for i in range(1, 101))
    # a stop hook reads every state's steps, so all are listed
    listed.clear()
    g = lts.explore([(0, 0)], lambda s: [((s, t), t, t) for t in successors(s)], lambda seed, key: seed,
                    max_depth=1, stop=lambda i, w, found: False)
    assert listed == list(range(101)) and g.truncated == "depth" and len(g.work) == 101


def test_unbounded_by_default():
    g, _ = explore(chain(3000))
    assert len(g.states) == 3000 and g.truncated is None


def test_path_is_a_shortest_path():
    rng = random.Random(4242)
    n = 300
    adjacency = {s: rng.sample(range(n), rng.randint(0, 3)) for s in range(n)}
    g, _ = explore(lambda s: adjacency[s])
    assert len(g.states) > 100
    for i, s in enumerate(g.states):
        path = g.path(i)
        # the labels replay from the root to i along edges of the graph
        at = g.states[g.root]
        for a, b in path:
            assert a == at and b in adjacency[a]
            at = b
        assert at == s
        assert len(path) == g.distance(g.root, lambda j: j == i)


@pytest.mark.parametrize("bounds", [{"max_states": 0}, {"max_depth": 0}, {"max_states": -3}])
def test_bounds_must_be_positive(bounds):
    with pytest.raises(ValueError):
        explore(chain(3), **bounds)


def edges(successors):
    """successors(s) lists the states s steps to, as topological_order
    wants them: (label, state) pairs."""
    return lambda s: [(None, t) for t in successors(s)]


def test_topological_order_of_a_chain_deeper_than_the_recursion_limit():
    assert N > sys.getrecursionlimit()
    assert lts.topological_order([0], edges(chain(N))) == list(range(N))
    assert lts.topological_order([N - 3], edges(chain(N))) == [N - 3, N - 2, N - 1]


def test_topological_order_is_none_on_a_reachable_cycle():
    # 0 -> 1 -> 2 -> 1, and 3 -> 0 leads into the cycle too
    successors = edges(lambda s: {0: [1], 1: [2], 2: [1], 3: [0]}[s])
    assert lts.topological_order([0], successors) is None
    assert lts.topological_order([3], successors) is None
    assert lts.topological_order([0], edges(lambda s: [s])) is None


def test_topological_order_respects_every_edge_of_a_random_dag():
    rng = random.Random(5150)
    n = 400
    # edges only go to larger numbers, so the graph is acyclic
    adjacency = {s: rng.sample(range(s + 1, n), min(n - s - 1, rng.randint(0, 4))) for s in range(n)}
    starts = [0, 7, 7, 200]
    order = lts.topological_order(starts, edges(lambda s: adjacency[s]))
    position = {s: k for k, s in enumerate(order)}
    assert len(position) == len(order)
    reached = {j for j, _ in lts._bfs(starts, edges(lambda s: adjacency[s]))}
    assert set(order) == reached
    for s in order:
        for t in adjacency[s]:
            assert position[s] < position[t]


def test_components_against_mutual_reachability():
    rng = random.Random(5151)
    for _ in range(300):
        n = rng.randint(1, 12)
        adjacency = {s: [rng.randrange(n) for _ in range(rng.randint(0, 3))] for s in range(n)}
        successors = edges(lambda s: adjacency[s])
        starts = rng.sample(range(n), rng.randint(1, n))
        comps = lts.components(starts, successors)
        reach = {s: {j for j, _ in lts._bfs([s], successors)} for s in range(n)}
        place = {s: k for k, comp in enumerate(comps) for s in comp}
        assert sorted(place) == sorted(set().union(*(reach[s] for s in starts)))
        assert sum(map(len, comps)) == len(place)
        for s in place:
            for t in place:
                assert (place[s] == place[t]) == (t in reach[s] and s in reach[t])
                if t in reach[s]:
                    assert place[t] <= place[s]  # a component comes after those it leads to
    # a cycle through a chain deeper than the recursion limit is one component
    assert lts.components([0], edges(lambda s: [(s + 1) % N])) == [list(range(N))]


def test_states_are_made_when_first_read():
    made = []

    def view(work):
        made.append(work)
        return ("state", work)

    g = lts.explore([(0, 0)], lambda s: [((s, t), t, t) for t in (s + 1, 0) if t < 3], lambda seed, _: seed, view=view)
    assert len(g.work) == 3 and g.successors(1) == [((1, 2), 2), ((1, 0), 0)]
    assert g.has_cycle() and g.path(2) == [(0, 1), (1, 2)] and made == []
    states = g.states
    assert states == [("state", 0), ("state", 1), ("state", 2)] and made == [0, 1, 2]
    assert g.states is states and made == [0, 1, 2]
    # without a view, the work is the state
    g, _ = explore(chain(3))
    assert g.states is g.work


def test_congruence_is_derived_once():
    g = semantics.explore(syntax.parse_session("role p = q!a(tt).q!a(tt).0\nrole q = p?a(x).p?a(y).0\n"))
    congruence = g.congruence
    assert congruence == [0, 1, 2] and g.congruence is congruence
