import itertools
import random

import pytest

from mcmp import ltypes, semantics, typecheck
from mcmp.ltypes import End, LocalContext, TBranch, TChoice, TRec, TVar
from mcmp.syntax import NatVal, TT, Var, parse_ltype, parse_process, parse_session, parse_source
from mcmp.typecheck import (
    CheckError,
    SharedContext,
    TypeCheckError,
    check_process,
    check_session,
    is_session_error,
    step_context,
    type_value,
)

import corpus
from genutil import widen


def T(text):
    return parse_ltype(text)


def test_type_value_constants_and_vars():
    g = SharedContext()
    assert type_value(g, NatVal(5)) == "nat"
    assert type_value(g, TT) == "bool"
    assert type_value(g.bind_value("x", "nat"), Var("x")) == "nat"
    with pytest.raises(TypeCheckError):
        type_value(g, Var("zzz"))


def test_nil_and_success_need_end():
    assert check_process(SharedContext(), parse_process("0"), End()) == []
    assert check_process(SharedContext(), parse_process("ok"), End()) == []
    errs = check_process(SharedContext(), parse_process("0"), T("q!l(bool).end"))
    assert errs and errs[0].kind == "not-subtype"


def test_example_duplicate_output_labels_share_one_branch():
    p = parse_process("q!l1(tt).q!lp(5).0 + q!l1(tt).q!lp(105).0 + q?l2(x).0 + r?l2(y).0")
    t = T("q!l1(bool).q!lp(nat).end + q?l2(bool).end + r?l2(bool).end")
    assert check_process(SharedContext(), p, t) == []


def test_example_same_input_label_different_continuations():
    p = parse_process("a?l(x).a!l1(5).0 + a?l(x).a!l2(tt).0")
    t = T("a?l(bool).(a!l1(nat).end + a!l2(bool).end)")
    assert check_process(SharedContext(), p, t) == []


def test_p10_typable():
    m, delta = corpus.load("p10")
    assert check_process(SharedContext(), m.process_of("p"), delta.type_of("p")) == []


def _candidate_input_types(labels, depth):
    """All well-formed input-only local types over participant a with the
    given labels, up to the depth bound, with an optional top recursion.
    Output branches in a candidate cannot matter for an input-only process:
    they constrain no summand and input coverage is unaffected."""
    level = [End(), TVar("t")]
    for _ in range(depth - 1):
        nxt = list(level)
        for size in (1, 2):
            for combo in itertools.combinations(labels, size):
                for conts in itertools.product(level, repeat=size):
                    branches = tuple(
                        TBranch("a", "?", label, "bool", cont) for label, cont in zip(combo, conts)
                    )
                    nxt.append(TChoice(branches))
        level = nxt
    out = []
    for t in level:
        if not ltypes.ftv(t):
            out.append(t)
        rec = TRec("t", t)
        if ltypes.guarded(rec) and not ltypes.ftv(rec):
            out.append(rec)
    return out


def test_p11_untypable_against_candidate_space():
    m, _ = corpus.load("p11")
    proc = m.process_of("p")
    candidates = _candidate_input_types(["l1", "l2"], 3)
    assert len(candidates) > 100
    for t in candidates:
        if not ltypes.well_formed(t):
            continue
        assert check_process(SharedContext(), proc, t), ltypes.render_type(t)


def test_conditional_guard_must_be_bool():
    p = parse_process("if 5 then 0 else 0")
    errs = check_process(SharedContext(), p, End())
    assert any(e.kind == "payload-mismatch" for e in errs)


def test_input_summand_without_declared_branch_rejected():
    p = parse_process("q?l1(x).0 + q?l2(x).0")
    t = T("q?l1(bool).end")
    errs = check_process(SharedContext(), p, t)
    assert any(e.kind == "missing-branch" for e in errs)


def test_uncovered_declared_input_branch_rejected():
    p = parse_process("q?l1(x).0")
    t = T("q?l1(bool).end + q?l2(bool).end")
    errs = check_process(SharedContext(), p, t)
    assert any(e.kind == "uncovered-input-branch" for e in errs)


def test_ill_formed_declared_type_reported():
    p = parse_process("q!l(7).0 + q!l(tt).0")
    t = TChoice(
        (
            TBranch("q", "!", "l", "nat", End()),
            TBranch("q", "!", "l", "bool", End()),
        )
    )
    errs = check_process(SharedContext(), p, t)
    assert errs and errs[0].kind == "label-clash"


def test_check_session_election():
    m, delta = corpus.load("election6")
    assert check_session(m, delta) == []


def test_check_session_reports_unsafe_context():
    m, delta = corpus.load("m_scmp")
    errs = check_session(m, delta)
    assert any(e.kind == "context-unsafe" for e in errs)


def test_check_session_empty_against_empty():
    m = parse_session("role p = 0")
    assert check_session(m, LocalContext((("p", End()),))) == []
    import mcmp.syntax as S

    assert check_session(S.Session(()), LocalContext(())) == []


def test_m2_untypable_needs_ill_formed_type():
    # a choice sending nat and bool under the same label can only be typed by
    # a type with a duplicate (participant, polarity, label) branch, which is
    # not well-formed
    q_proc = parse_process("p!l(7).0 + p!l(tt).0")
    for candidate in ("p!l(nat).end", "p!l(bool).end", "p!l(nat).end + p!lx(bool).end"):
        assert check_process(SharedContext(), q_proc, T(candidate))
    clash = TChoice(
        (TBranch("p", "!", "l", "nat", End()), TBranch("p", "!", "l", "bool", End()))
    )
    assert not ltypes.well_formed(clash)
    errs = check_process(SharedContext(), q_proc, clash)
    assert errs and errs[0].kind == "label-clash"


def test_check_session_missing_participant_type():
    m = parse_session("role p = q!l(tt).0")
    errs = check_session(m, LocalContext(()))
    assert errs


def test_weakening_to_wider_type():
    rng = random.Random(77)
    m, delta = corpus.load("mixed2")
    proc = m.process_of("p")
    t = delta.type_of("p")
    assert check_process(SharedContext(), proc, t) == []
    count = 0
    for _ in range(60):
        wider = widen(rng, t, ["l1", "l2", "l9"])
        if not ltypes.well_formed(wider):
            continue
        if not ltypes.subtype(t, wider):
            continue
        # widening only grows output blocks, so the checked process keeps
        # checking (input blocks are untouched by the generator on this type)
        in_labels = lambda u: {
            (b.target, b.label) for b in ltypes.head(u).branches if b.polarity == "?"
        }
        if in_labels(wider) != in_labels(t):
            continue
        assert check_process(SharedContext(), proc, wider) == []
        count += 1
    assert count > 20


# ---------------------------------------------------------------------------
# session errors


def test_label_error_session():
    m, _ = parse_source(corpus.text("label_error"))
    flag, witness = is_session_error(m)
    assert flag and witness["kind"] == "label-error"
    assert witness["sender"] == "p" and witness["receiver"] == "q"


def test_label_ok_session():
    m, _ = parse_source(corpus.text("label_ok"))
    flag, _ = is_session_error(m)
    assert not flag


def test_value_error_session():
    m = parse_session("role p = if 5 then 0 else 0")
    flag, witness = is_session_error(m)
    assert flag and witness["kind"] == "value-error"


def test_open_guard_is_not_a_value_error():
    m = parse_session("role p = if x then 0 else 0")
    assert not is_session_error(m)[0]


# ---------------------------------------------------------------------------
# step_context and the executable theorems


def test_step_context_comm():
    delta = LocalContext((("p", T("q!l(bool).end")), ("q", T("p?l(bool).end"))))
    m = parse_session("role p = q!l(tt).0 role q = p?l(x).0")
    (step,) = semantics.enabled_steps(m)
    succ = step_context(delta, step)
    assert all(isinstance(t, End) for _, t in succ.entries)


def test_step_context_if_unchanged():
    delta = LocalContext((("p", End()),))
    m = parse_session("role p = if tt then 0 else 0")
    (step,) = semantics.enabled_steps(m)
    assert step_context(delta, step) is delta


def test_step_context_election_first_step():
    m, delta = corpus.load("election6")
    steps = semantics.enabled_steps(m)
    step = next(s for s in steps if s.sender == "b" and s.receiver == "a")
    succ = step_context(delta, step)
    assert isinstance(ltypes.head(succ.type_of("b")), End)
    assert not isinstance(ltypes.head(succ.type_of("a")), End)


def _typed_safe_fixtures():
    for name in sorted(corpus.SESSIONS):
        m, delta = corpus.load(name)
        if delta is None:
            continue
        if not ltypes.is_safe(delta)[0]:
            continue
        if check_session(m, delta):
            continue
        yield name, m, delta


def test_subject_reduction_over_corpus():
    checked = 0
    for name, m, delta in _typed_safe_fixtures():
        graph = semantics.explore(m, max_states=500)
        assert not graph.truncated, name
        contexts = {graph.root: delta}
        todo = [graph.root]
        seen = {graph.root}
        while todo:
            i = todo.pop()
            for step, j in graph.successors(i):
                succ_ctx = step_context(contexts[i], step)
                errs = check_session(
                    semantics.apply_step(graph.states[i], step), succ_ctx
                )
                assert errs == [], (name, step.describe(), errs)
                checked += 1
                if j not in seen:
                    seen.add(j)
                    contexts[j] = succ_ctx
                    todo.append(j)
    assert checked > 40


def test_communication_safety_over_corpus():
    for name, m, delta in _typed_safe_fixtures():
        graph = semantics.explore(m, max_states=500)
        for state in graph.states:
            flag, witness = is_session_error(state)
            assert not flag, (name, witness)


def test_deadlock_freedom_theorem_over_corpus():
    import mcmp.syntax as S

    for name, m, delta in _typed_safe_fixtures():
        if not ltypes.is_deadlock_free(delta)[0]:
            continue
        graph = semantics.explore(m, max_states=500)
        for i in range(len(graph.states)):
            if graph.successors(i):
                continue
            for _, proc in graph.states[i].parts:
                assert isinstance(proc, (S.Nil, S.Success)), (name, i)
