import random

import pytest

from mcmp import encode, ltypes, semantics, syntax
from mcmp.encode import (
    ENCODINGS,
    build_order,
    encode as run_encode,
    encode_types,
    verify_correspondence,
    verify_name_invariance,
)
from mcmp.syntax import (
    TT,
    Branch,
    Choice,
    McmpError,
    Nil,
    Prefix,
    ProcVar,
    Rec,
    Session,
    Success,
    parse_ltype,
    parse_session,
    render_process,
    render_session,
)

import corpus


def test_build_order_worked_example():
    m = parse_session("role a = b!l(tt).0 role b = a?l(x).0 role c = 0")
    slices = build_order(m)
    assert slices["a"] == frozenset({("a", "b"), ("a", "c")})
    assert slices["b"] == frozenset({("a", "b"), ("b", "c")})
    assert slices["c"] == frozenset({("a", "c"), ("b", "c")})


def reference_order_slices(names_in_order, all_names):
    """The slices as the definition builds them: the left-nested parallel
    tree of names_in_order, walked from the root with the full relation,
    filtering with lu on left branches and ru on right branches."""
    full = frozenset((p, q) for p in sorted(all_names) for q in sorted(all_names) if p != q)
    if len(names_in_order) == 1:
        return {names_in_order[0]: frozenset()}
    slices = {}

    def leaf_roles(node):
        return {node} if isinstance(node, str) else leaf_roles(node[0]) | leaf_roles(node[1])

    def assign(node, mark, rel):
        filt = encode._lu if mark == "l" else encode._ru
        if isinstance(node, str):
            slices[node] = filt(rel, {node})
            return
        rel2 = filt(rel, leaf_roles(node))
        assign(node[0], "l", rel2)
        assign(node[1], "r", rel2)

    tree = names_in_order[0]
    for name in names_in_order[1:]:
        tree = (tree, name)
    assign(tree[0], "l", full)
    assign(tree[1], "r", full)
    return slices


def test_order_slices_match_the_tree_walk():
    cases = []
    for name in corpus.SESSIONS + corpus.UNTYPED:
        m, context = corpus.load(name)
        cases.append((m.participants(), syntax.session_participants(m)))
        if context is not None:
            cases.append((context.domain(), set(context.domain()).union(*map(ltypes.pt, dict(context.entries).values()))))
    rng = random.Random(11)
    pool = [f"r{i}" for i in range(12)]
    for _ in range(300):
        names = tuple(rng.sample(pool, rng.randint(1, 8)))
        cases.append((names, set(names) | set(rng.sample(pool, rng.randint(0, 3)))))
    for names, all_names in cases:
        got = encode._order_slices(names, all_names)
        want = reference_order_slices(names, all_names)
        assert got == want and list(got) == list(want), names


def test_build_order_singleton_empty():
    m = parse_session("role p = 0")
    assert build_order(m) == {"p": frozenset()}


def test_build_order_depends_on_parse_tree():
    ab = parse_session("role a = b!l(tt).0 role b = a?l(x).0")
    ba = parse_session("role b = a?l(x).0 role a = b!l(tt).0")
    assert build_order(ab)["a"] != build_order(ba)["a"]


def test_order_slices_agree_pairwise_on_corpus():
    for name in sorted(corpus.SESSIONS):
        m, _ = corpus.load(name)
        slices = build_order(m)
        roles = m.participants()
        for p in roles:
            for q in roles:
                if p == q:
                    continue
                sp, sq = slices[p], slices[q]
                shared = {(p, q), (q, p)}
                mine = shared & sp
                theirs = shared & sq
                if mine and theirs:
                    assert mine == theirs, (name, p, q)


# ---------------------------------------------------------------------------
# golden clauses from the translation tables


def test_scbs_bs_output_choice_clause():
    m = parse_session("role p = q!l1(tt).0 + q!l2(tt).0 role q = p?l1(x).0 + p?l2(x).0")
    enc = run_encode(m, "scbs-bs")
    assert render_process(enc.process_of("p")) == "q?enc_o(w0).q!l1(tt).0 + q?enc_o(w0).q!l2(tt).0"
    assert render_process(enc.process_of("q")) == "p!enc_o(tt).(p?l1(x).0 + p?l2(x).0)"


def test_encode_nil_homomorphic():
    m = parse_session("role p = 0 role q = 0")
    for enc_id in ("scbs-bs", "mcbs-scbs", "mcbs-bs", "smp-mp", "dmp-smp", "dmp-mp", "mcmp-msmp"):
        enc = run_encode(m, enc_id)
        assert all(isinstance(proc, syntax.Nil) for _, proc in enc.parts)


def test_mcbs_scbs_mixed_lower_participant():
    # mixed choice at the lower participant: outputs stay, inputs guarded by
    # an enc_i announcement with a reset escape
    m, _ = corpus.load("mixed2")
    enc = run_encode(m, "mcbs-scbs")
    p = render_process(enc.process_of("p"))
    assert p.startswith("q!l2(tt).0 + q!enc_i(tt).(q?l1(x).ok + q?reset(")
    q = render_process(enc.process_of("q"))
    assert q.startswith("p?l2(y).ok + p?enc_i(")


def test_mcbs_scbs_inputs_only_higher_participant():
    m, _ = corpus.load("m_mcbs")
    enc = run_encode(m, "mcbs-scbs")
    q = render_process(enc.process_of("q"))
    assert "p!reset(tt)" in q and q.startswith("p?l1(x).0 + p?l3(x).ok + p?enc_i(")


def test_mcbs_bs_all_summands_enc_o_guarded():
    m, _ = corpus.load("mixed2")
    enc = run_encode(m, "mcbs-bs")
    p = enc.process_of("p")
    assert all(b.prefix.label == "enc_o" and b.prefix.polarity == "?" for b in p.branches)
    q = enc.process_of("q")
    assert len(q.branches) == 1 and q.branches[0].prefix.label == "enc_o"


def test_mcmp_msmp_splits_per_participant():
    m, _ = corpus.load("m_scmp")
    enc = run_encode(m, "mcmp-msmp")
    assert "MSMP" in syntax.classify(enc)
    # per-participant blocks in d's translated choice are single-polarity
    d = enc.process_of("d")
    pols = {}
    for b in d.branches:
        pols.setdefault(b.prefix.target, set()).add(b.prefix.polarity)
    assert all(len(v) == 1 for v in pols.values())


def test_encode_rejects_out_of_fragment():
    m, _ = corpus.load("m_scmp")  # SCMP, not DMP
    with pytest.raises(McmpError):
        run_encode(m, "dmp-smp")


def test_encode_rejects_reserved_labels():
    m = parse_session("role p = q!enc_o(tt).0", allow_reserved=True)
    with pytest.raises(McmpError):
        run_encode(m, "mcmp-msmp")


@pytest.mark.parametrize("enc_id", sorted(set(ENCODINGS) - {"lcmv-mcbs"}))
def test_target_membership(enc_id):
    e = ENCODINGS[enc_id]
    for name in corpus.ENCODING_FIXTURES[enc_id]:
        m, _ = corpus.load(name)
        enc = run_encode(m, enc_id)
        assert e.target in syntax.classify(enc), (name, render_session(enc))


def test_encoding_injective_on_fixture_corpus():
    for enc_id in sorted(set(ENCODINGS) - {"lcmv-mcbs"}):
        seen = {}
        for name in corpus.ENCODING_FIXTURES[enc_id]:
            m, _ = corpus.load(name)
            key = syntax.canon_session(run_encode(m, enc_id))
            assert key not in seen, (enc_id, name, seen[key])
            seen[key] = name


def test_success_position_preserved():
    for enc_id in sorted(set(ENCODINGS) - {"lcmv-mcbs"}):
        for name in corpus.ENCODING_FIXTURES[enc_id]:
            m, _ = corpus.load(name)
            enc = run_encode(m, enc_id)
            assert semantics.has_success(m) == semantics.has_success(enc)


def test_compositionality_per_participant():
    for enc_id in sorted(set(ENCODINGS) - {"lcmv-mcbs"}):
        for name in corpus.ENCODING_FIXTURES[enc_id]:
            m, _ = corpus.load(name)
            slices = build_order(m)
            enc = run_encode(m, enc_id, order=slices)
            for p, proc in m.parts:
                alone = encode.encode_process(proc, p, slices[p], enc_id)
                assert syntax.alpha_equal(alone, enc.process_of(p))


def _replace_cont(proc, index, repl):
    branches = list(proc.branches)
    b = branches[index]
    branches[index] = syntax.Branch(b.prefix, repl)
    return syntax.Choice(tuple(branches))


def test_compositionality_splice_subterms():
    # encoding a choice with a hole, then splicing the encoded subterm into
    # the hole, equals encoding the choice with the subterm in place
    import random

    from genutil import gen_process
    from mcmp.syntax import ProcVar, substitute_proc

    rng = random.Random(1234)
    shapes = {"mcbs-scbs": "dmp", "mcbs-bs": "dmp", "dmp-smp": "dmp", "dmp-mp": "dmp",
              "mcmp-msmp": "mcmp", "scbs-bs": "scmp", "smp-mp": "smp"}
    checked = 0
    for enc_id, shape in shapes.items():
        for name in corpus.ENCODING_FIXTURES[enc_id]:
            m, _ = corpus.load(name)
            slices = build_order(m)
            for p, proc in m.parts:
                if not isinstance(proc, syntax.Choice):
                    continue
                peers = sorted({b.prefix.target for b in proc.branches})
                for index in range(len(proc.branches)):
                    repl = gen_process(rng, peers, ["l1", "l2"], 1, shape)
                    with_hole = _replace_cont(proc, index, ProcVar("ZHOLE"))
                    with_repl = _replace_cont(proc, index, repl)
                    enc_hole = encode.encode_process(with_hole, p, slices[p], enc_id)
                    enc_repl = encode.encode_process(with_repl, p, slices[p], enc_id)
                    enc_sub = encode.encode_process(repl, p, slices[p], enc_id)
                    spliced = substitute_proc(enc_hole, enc_sub, "ZHOLE")
                    assert syntax.alpha_equal(spliced, enc_repl), (enc_id, name, p, index)
                    checked += 1
    assert checked > 40


# ---------------------------------------------------------------------------
# type translation


@pytest.mark.parametrize("enc_id", ["dmp-smp", "dmp-mp", "mcmp-msmp"])
def test_first_unordered_peer_is_the_outermost(enc_id):
    # reading p7's term meets a before b, though the walk translates b's
    # choice first
    m, _ = corpus.load("p7")
    with pytest.raises(McmpError, match="^participants p and a are unordered$"):
        run_encode(m, enc_id)


def test_correspondence_on_a_300_message_chain():
    # deeper than the recursion limit allows a walk that recurses per prefix
    m = chain_session(random.Random(3), 300)
    for enc_id in ("scbs-bs", "smp-mp"):
        report = verify_correspondence(m, enc_id, max_depth=1000)
        assert report.passed(), report.failures


def test_render_length_is_the_length_of_the_text():
    for name in corpus.SESSIONS + corpus.UNTYPED:
        m, context = corpus.load(name)
        assert syntax.render_length(m, context) == len(render_session(m, context))
        for enc_id in sorted(set(ENCODINGS) - {"lcmv-mcbs"}):
            try:
                target = run_encode(m, enc_id)
                target_context = None if context is None else encode_types(context, enc_id)
            except McmpError:
                continue
            assert syntax.render_length(target, target_context) == len(render_session(target, target_context))


def test_type_translation_end_identity():
    delta = ltypes.LocalContext((("p", ltypes.End()),))
    for enc_id in sorted(set(ENCODINGS) - {"lcmv-mcbs"}):
        assert encode_types(delta, enc_id).type_of("p") == ltypes.End()


def test_scbs_bs_type_clauses():
    def enc(text):
        delta = ltypes.LocalContext((("p", parse_ltype(text)),))
        return ltypes.render_type(encode_types(delta, "scbs-bs").type_of("p"))

    assert enc("q!l1(bool).end + q!l2(nat).end") == "q?enc_o(bool).(q!l1(bool).end + q!l2(nat).end)"
    assert enc("q?l1(bool).end") == "q!enc_o(bool).q?l1(bool).end"


def test_type_translation_rejects_mixed_for_o_style():
    delta = ltypes.LocalContext((("p", parse_ltype("q!l1(bool).end + q?l2(bool).end")),))
    with pytest.raises(McmpError):
        encode_types(delta, "scbs-bs")


@pytest.mark.parametrize(
    "enc_id,name",
    [
        ("scbs-bs", "ping"),
        ("scbs-bs", "out2"),
        ("smp-mp", "smp_pair"),
        ("smp-mp", "m_mp"),
        ("mcbs-scbs", "mixed2"),
        ("mcbs-scbs", "m_mcbs"),
        ("dmp-smp", "dmp3"),
        ("mcbs-bs", "mixed2"),
        ("mcmp-msmp", "mixed2"),
    ],
)
def test_type_translation_preserves_safe_and_df(enc_id, name):
    m, delta = corpus.load(name)
    assert ltypes.is_safe(delta)[0] and ltypes.is_deadlock_free(delta)[0]
    order = build_order(m)
    out = encode_types(delta, enc_id, order=order)
    assert ltypes.is_safe(out)[0], ltypes.render_type(out.entries[0][1])
    assert ltypes.is_deadlock_free(out)[0]


def test_translated_context_types_translated_session():
    # on every typed fixture and session encoding that translates both the
    # session and its context, a well-typed source gives a well-typed target
    from mcmp import typecheck

    translated, ill_typed = 0, []
    for name in corpus.SESSIONS:
        m, delta = corpus.load(name)
        if typecheck.check_session(m, delta):
            continue
        order = build_order(m)
        for enc_id in sorted(set(ENCODINGS) - {"lcmv-mcbs"}):
            try:
                enc_m = run_encode(m, enc_id, order=order)
                enc_d = encode_types(delta, enc_id, order=order)
            except McmpError:
                continue
            translated += 1
            if typecheck.check_session(enc_m, enc_d):
                ill_typed.append((name, enc_id))
    assert translated == 70
    assert ill_typed == [("election6", "mcmp-msmp")]
    # the one exception is a fault of the per-peer i table.  a and station
    # are input-only toward each other; a is below station, so it announces
    # enc_i and waits for no reset, while station answers enc_i with reset
    from mcmp.typecheck import is_session_error

    m, _ = corpus.load("election6")
    assert not any(is_session_error(s)[0] for s in semantics.explore(m).states)
    target = semantics.explore(run_encode(m, "mcmp-msmp"))
    assert sum(is_session_error(s)[0] for s in target.states) == 55 and len(target.states) == 99
    after = {step.describe(): target.states[j] for step, j in target.successors(target.root)}
    assert is_session_error(after["a->station:enc_i(tt)"]) == (True, {
        "kind": "label-error", "sender": "station", "receiver": "a", "label": "reset", "listening": ["del"],
    })


# ---------------------------------------------------------------------------
# the good-encoding harness


@pytest.mark.parametrize("enc_id", sorted(set(ENCODINGS) - {"lcmv-mcbs"}))
def test_correspondence_on_fixtures(enc_id):
    bound = ENCODINGS[enc_id].step_bound
    for name in corpus.ENCODING_FIXTURES[enc_id]:
        m, _ = corpus.load(name)
        report = verify_correspondence(m, enc_id)
        assert report.passed(), (name, report.failures)
        assert report.max_emulation_factor <= bound


SESSION_ENCODINGS = sorted(set(ENCODINGS) - {"lcmv-mcbs"})


@pytest.mark.parametrize(
    "name, enc_id",
    [("pingpong_rec", e) for e in SESSION_ENCODINGS] + [(n, e) for n in ("p10", "p11") for e in ("scbs-bs", "smp-mp")],
)
def test_correspondence_on_recursive_fixtures(name, enc_id):
    # the explored root has its top-level recursions unfolded, and so must
    # the components that distributability encodes on their own
    m, _ = corpus.load(name)
    report = verify_correspondence(m, enc_id)
    assert report.passed(), report.failures


def loop_session(k):
    """At its head p either starts a k-message body, directions alternating,
    that returns to the head, or stops, after which p is ok: k+1 states,
    binary separate choice."""
    procs = {"p": [], "q": []}
    for i in range(k):
        sender, receiver = ("p", "q") if i % 2 == 0 else ("q", "p")
        procs[sender].append(f"{receiver}!a{i}(tt)")
        procs[receiver].append(f"{sender}?a{i}(v{i})")
    return parse_session(
        f"role p = rec X.({'.'.join(procs['p'] + ['X'])} + q!z(ff).ok)"
        f" role q = rec Y.({'.'.join(procs['q'] + ['Y'])} + p?z(w).0)"
    )


@pytest.mark.parametrize("k", [3, 6, 10])
@pytest.mark.parametrize("enc_id", SESSION_ENCODINGS)
def test_correspondence_on_loops(enc_id, k):
    m = loop_session(k)
    assert len(semantics.explore(m).states) == k + 1
    report = verify_correspondence(m, enc_id)
    assert report.passed(), report.failures


def chain_session(rng, k):
    """A two-party k-message chain ending in ok, each message's direction
    and payload drawn from rng: k+1 states, binary separate choice."""
    procs = {"p": [], "q": []}
    for i in range(k):
        sender, receiver = rng.choice((("p", "q"), ("q", "p")))
        procs[sender].append(f"{receiver}!a{i}({rng.choice(('tt', 'ff', str(i)))})")
        procs[receiver].append(f"{sender}?a{i}(v{i})")
    return parse_session(f"role p = {'.'.join(procs['p'] + ['ok'])} role q = {'.'.join(procs['q'] + ['0'])}")


def weak_bisim_per_pair(graph, observables):
    """weak_bisim_classes as it was, reading a state's observables again for
    every state that reaches it; the reference for the per-state reading."""
    n = len(graph.states)
    reach = [sorted(graph.reachable(i)) for i in range(n)]

    def observable_key(i):
        key = []
        if "success" in observables:
            key.append(any(semantics.has_success(graph.states[k]) for k in reach[i]))
        if "barbs" in observables:
            weak = set()
            for k in reach[i]:
                weak |= semantics.barbs(graph.states[k])
            key.append(tuple(sorted(b.describe() for b in weak)))
        return tuple(key)

    def ranks(keys):
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        return [rank[k] for k in keys]

    classes = ranks([observable_key(i) for i in range(n)])
    while True:
        signature = [tuple(sorted({classes[k] for k in reach[i]} | {classes[i]})) for i in range(n)]
        refined = ranks([(classes[i], signature[i]) for i in range(n)])
        if refined == classes:
            return classes
        classes = refined


OBSERVABLES = [frozenset({"success"}), frozenset({"barbs"}), frozenset({"success", "barbs"})]


def _assert_classes_match_reference(graph):
    for observables in OBSERVABLES:
        assert semantics.weak_bisim_classes(graph, observables) == weak_bisim_per_pair(graph, observables)


def test_weak_bisim_classes_match_per_pair_reference_on_fixtures():
    checked = 0
    for text in map(corpus.text, corpus.SESSIONS + corpus.UNTYPED):
        graph = semantics.explore(parse_session(text))
        if not graph.truncated:
            _assert_classes_match_reference(graph)
            checked += 1
    assert checked >= 25


@pytest.mark.parametrize("enc_id", SESSION_ENCODINGS)
def test_weak_bisim_classes_match_per_pair_reference_on_encoded_graphs(enc_id):
    # the joint graph of every source state's translation, as the
    # good-encoding harness builds it
    rng = random.Random(4201)
    sources = [chain_session(rng, k) for k in (3, 5, 8)] + [loop_session(k) for k in (3, 6)]
    for m in sources:
        states = semantics.explore(m).states
        joint = semantics.explore_many([run_encode(s, enc_id) for s in states])
        assert not joint.truncated and len(joint.states) >= len(states)
        _assert_classes_match_reference(joint)


def _cyclic_session(rng):
    """Two independent pairs, each a random mirrored choice tree whose
    leaves now and then jump back to its start, so that the graph has
    cycles; now and then a receiver lacks a branch, so some states are
    stuck."""

    def pair(p, q, depth):
        if depth < 3 and (depth == 0 or rng.random() < 0.3):
            return rng.choice([(ProcVar("X"), ProcVar("Y"))] * 2 + [(Success(), Nil()), (Nil(), Nil())])
        branches = {p: [], q: []}
        for label in rng.sample(["a", "b", "c"], rng.randint(1, 2)):
            sender, receiver = (p, q) if rng.random() < 0.5 else (q, p)
            conts = dict(zip((p, q), pair(p, q, depth - 1)))
            branches[sender].append(Branch(Prefix(receiver, "!", label, payload=TT), conts[sender]))
            if rng.random() < 0.85:
                branches[receiver].append(Branch(Prefix(sender, "?", label, var="x"), conts[receiver]))
        return tuple(Choice(tuple(branches[r])) if branches[r] else Nil() for r in (p, q))

    parts = []
    for p, q in (("p", "q"), ("r", "s")):
        pp, qq = pair(p, q, 3)
        parts += [(p, Rec("X", pp) if isinstance(pp, Choice) else pp), (q, Rec("Y", qq) if isinstance(qq, Choice) else qq)]
    return Session(tuple(parts))


def test_weak_bisim_classes_match_per_pair_reference_on_cyclic_graphs():
    rng = random.Random(4202)
    cyclic = 0
    for _ in range(80):
        graph = semantics.explore(_cyclic_session(rng), max_states=300)
        if graph.truncated:
            continue
        _assert_classes_match_reference(graph)
        cyclic += graph.has_cycle()
    assert cyclic >= 20


def first_stranded_by_search(joint, classes, start, done_classes):
    """The soundness loop as it was: one breadth-first search for a done
    state from each state reachable from start, in reachable(start) order."""
    for n in joint.reachable(start):
        if joint.distance(n, lambda k: classes[k] in done_classes) is None:
            return n
    return None


def _soundness(source, targets):
    """The soundness failure _correspondence reports when each source state
    translates to targets[i], with the old loop's answer."""
    report = encode._correspondence(encode.encoding("scbs-bs"), source, lambda s: targets[source.states.index(s)],
                                    semantics.has_success, lambda _: [], 1000, 100)
    found = [f["stranded_target_state"] for f in report.failures if f["criterion"] == "soundness"]
    joint = semantics.explore_many(targets, max_states=1000, max_depth=100)
    classes = semantics.weak_bisim_classes(joint)
    done = {classes[n] for n in joint.roots}
    expected = first_stranded_by_search(joint, classes, joint.roots[source.root], done)
    assert report.soundness == (expected is None)
    return found, expected


def test_soundness_reports_first_stranded_state():
    source = semantics.explore(parse_session("role p = q!a(tt).ok role q = p?a(x).0"))
    # the root's translation may also take b, after which success is out of
    # reach: no translated source state is bisimilar to that state
    targets = [parse_session("role p = r!c(tt).(q!a(tt).ok + q!b(tt).0) role q = p?a(x).0 + p?b(x).0 role r = p?c(x).0"),
               parse_session("role p = ok role q = 0 role r = 0")]
    found, expected = _soundness(source, targets)
    assert expected is not None and found == [expected]
    joint = semantics.explore_many(targets)
    assert joint.states[expected] == parse_session("role p = 0 role q = 0 role r = 0")
    # several stranded states: the first in reachable(start) order counts,
    # not the lowest number, which the second root reaches
    targets[1] = parse_session("role p = q!e(tt).ok + q!f(tt).0 role q = p?e(x).0 + p?f(x).0 role r = p?z(x).0")
    found, expected = _soundness(source, targets)
    assert found == [expected] and expected is not None
    joint = semantics.explore_many(targets)
    classes = semantics.weak_bisim_classes(joint)
    done = {classes[n] for n in joint.roots}
    stranded = [n for n in range(len(joint.states)) if joint.distance(n, lambda k: classes[k] in done) is None]
    assert min(stranded) < expected
    # q takes anything; a stranded state that the second root finds first
    # lies deeper from the start than another one
    anything = "rec Y.(p?a(x).Y + p?b(x).Y + p?c(x).Y + p?d(x).Y + p?e(x).Y)"
    targets = [parse_session(f"role p = q!c(tt).(q!d(tt).s!a(tt).0 + q!e(tt).q!a(tt).0 + q!b(tt).ok) role q = {anything}"),
               parse_session(f"role p = q!a(tt).0 + q!b(tt).ok role q = {anything}")]
    found, expected = _soundness(source, targets)
    joint = semantics.explore_many(targets)
    reach = joint.reachable(joint.roots[0])
    assert found == [expected] and reach.index(expected) < reach.index(expected - 1)


def test_soundness_matches_search_on_random_translations():
    rng = random.Random(4203)
    sources = [semantics.explore(parse_session(text)) for text in (
        "role p = 0", "role p = q!a(tt).ok role q = p?a(x).0",
        "role p = q!a(tt).0 + q!b(tt).ok role q = p?a(x).0 + p?b(x).0")]
    stranded = 0
    for _ in range(60):
        source = rng.choice(sources)
        found, expected = _soundness(source, [_cyclic_session(rng) for _ in source.states])
        assert found == ([] if expected is None else [expected])
        stranded += expected is not None
    assert 5 <= stranded <= 55


def test_correspondence_trivial_on_nil():
    m = parse_session("role p = 0")
    for enc_id in sorted(set(ENCODINGS) - {"lcmv-mcbs"}):
        report = verify_correspondence(m, enc_id)
        assert report.passed() and report.max_emulation_factor == 0, enc_id


def test_name_invariance_syntactic_for_order_free():
    m, _ = corpus.load("ping")
    assert verify_name_invariance(m, "scbs-bs", {"p": "a", "q": "b"})
    assert verify_name_invariance(m, "scbs-bs", {"p": "q", "q": "p"})
    m2, _ = corpus.load("smp_pair")
    assert verify_name_invariance(m2, "smp-mp", {"a": "b", "b": "a"})


def test_name_invariance_bisimulation_for_order_dependent():
    m, _ = corpus.load("mixed2")
    assert verify_name_invariance(m, "mcbs-scbs", {"p": "q", "q": "p"})
    assert verify_name_invariance(m, "mcbs-bs", {"p": "q", "q": "p"})
    m2, _ = corpus.load("m_scmp")
    assert verify_name_invariance(m2, "mcmp-msmp", {"a": "c", "c": "a"})


def test_name_invariance_identity_all():
    for enc_id in sorted(set(ENCODINGS) - {"lcmv-mcbs"}):
        for name in corpus.ENCODING_FIXTURES[enc_id]:
            m, _ = corpus.load(name)
            ident = {p: p for p in m.participants()}
            assert verify_name_invariance(m, enc_id, ident)


def test_report_json_shape(capsys):
    import json

    from mcmp import cli

    assert cli.main(["--json", "verify-encoding", str(corpus.FIXTURES / "ping.mcmp"), "--via", "scbs-bs"]) == 0
    data = json.loads(capsys.readouterr().out)
    for key in (
        "completeness",
        "soundness",
        "success_sensitive",
        "divergence_reflected_to_bound",
        "distributability_preserved",
        "max_emulation_factor",
    ):
        assert key in data
