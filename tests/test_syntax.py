import random

import pytest

from mcmp import syntax
from mcmp.syntax import (
    TT,
    BoolVal,
    Branch,
    Choice,
    Cond,
    NatVal,
    Nil,
    ParseError,
    Prefix,
    Session,
    Success,
    Var,
    alpha_equal,
    apply_rename,
    canon_session,
    classify,
    is_symmetric,
    parse_process,
    parse_session,
    parse_source,
    render,
    render_session,
    struct_congruent,
    substitute_proc,
    substitute_value,
    unfold_rec,
)

import corpus
from genutil import gen_session


def test_parse_smallest_session():
    m = parse_session("role p = 0")
    assert m.participants() == ("p",)
    assert isinstance(m.process_of("p"), Nil)


def test_parse_election_has_six_roles():
    m = parse_session(corpus.text("election6"))
    assert sorted(m.participants()) == ["a", "b", "c", "d", "e", "station"]


def test_reserved_labels_rejected():
    for bad in ("q!enc_o(tt).0", "q!enc_i(tt).0", "q?reset(x).0", "q!foo.o(tt).0", "q?bar.i(x).0"):
        with pytest.raises(ParseError):
            parse_session(f"role p = {bad}")
    # but accepted when explicitly allowed (re-parsing encoded output)
    m = parse_session("role p = q!enc_o(tt).0", allow_reserved=True)
    assert isinstance(m.process_of("p"), Choice)


def test_duplicate_participant_rejected():
    with pytest.raises(ParseError):
        parse_session("role p = 0 role p = 0")


def test_self_addressing_rejected():
    with pytest.raises(ParseError):
        parse_session("role p = p!l(tt).0")


def test_unguarded_recursion_rejected():
    with pytest.raises(ParseError):
        parse_session("role p = rec X.X")
    with pytest.raises(ParseError):
        parse_session("role p = rec X.(rec Y.X)")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_session("role p = q!l(tt).0 +")
    assert err.value.line >= 1 and err.value.col >= 1


def test_render_nil_and_sum_order():
    assert render(Nil()) == "0"
    p = parse_process("a!l1(tt).0 + b?l2(x).0")
    assert render(p) == "a!l1(tt).0 + b?l2(x).0"


def test_keyword_participant_names_parse_back():
    # a role, a types entry and a prefix's target may take a keyword's name
    text = (
        "role if = ok!a(1).(if tt then ok else 0)\n"
        "role ok = if?a(x).end!b(x).0\n"
        "role end = ok?b(y).(rec X.ok?c(z).X)\n"
        "types {\n  if: ok!a(nat).end\n  ok: if?a(nat).end!b(nat).end\n  end: ok?b(nat).end\n}\n"
    )
    m, ctx = parse_source(text)
    assert m.participants() == ("if", "ok", "end") and ctx.domain() == ("if", "ok", "end")
    assert m.process_of("if").branches[0].cont == syntax.Cond(syntax.TT, syntax.Success(), Nil())
    assert render_session(m, ctx) == text


@pytest.mark.parametrize("name", sorted(corpus.SESSIONS))
def test_roundtrip_corpus(name):
    m, ctx = corpus.load(name)
    again, ctx2 = parse_source(render_session(m, ctx))
    assert struct_congruent(m, again)
    if ctx is not None:
        assert ctx2 is not None and [p for p, _ in ctx2.entries] == [p for p, _ in ctx.entries]


def test_substitute_value_on_cond():
    p = parse_process("if x then 0 else ok")
    q = substitute_value(p, TT, "x")
    assert isinstance(q, Cond) and q.guard == TT


def test_substitute_value_in_payload():
    p = parse_process("q!l(x).0")
    q = substitute_value(p, NatVal(5), "x")
    assert q.branches[0].prefix.payload == NatVal(5)


def test_substitute_value_identity_when_not_free():
    p = parse_process("q?l(y).0")
    assert substitute_value(p, NatVal(1), "x") == p


def test_substitute_value_capture_avoiding():
    # substituting y for x must not be captured by the ?-binder on y
    p = parse_process("q?y(z).q!l(x).0")
    body = parse_process("q?w(y).q!l(x).0")
    q = substitute_value(body, Var("y"), "x")
    bound = q.branches[0].prefix.var
    assert bound != "y"
    inner = q.branches[0].cont
    assert inner.branches[0].prefix.payload == Var("y")


def test_substitute_value_renames_binders_deterministically():
    # the fresh name depends on the term alone, not on earlier substitutions
    body = parse_process("q?w(y).q!l(x).0")
    first = substitute_value(body, Var("y"), "x")
    assert first.branches[0].prefix.var == "y_0"
    assert substitute_value(body, Var("y"), "x") == first
    # a candidate free in the body is skipped
    crowded = substitute_value(parse_process("q?w(y).q!l(x).q!m(y_0).0"), Var("y"), "x")
    assert crowded.branches[0].prefix.var == "y_1"


def test_substitute_proc_and_unfold():
    assert substitute_proc(syntax.ProcVar("X"), Nil(), "X") == Nil()
    rec = parse_process("rec X.(a?l(x).X)")
    unfolded = unfold_rec(rec)
    assert isinstance(unfolded, Choice)
    assert isinstance(unfolded.branches[0].cont, syntax.Rec)


def test_unfold_p10_guarded():
    m, _ = corpus.load("p10")
    unfolded = unfold_rec(m.process_of("p"))
    assert isinstance(unfolded, Choice)


def test_struct_congruent_nil_absorption():
    m1 = parse_session("role p = 0 role q = a!l(tt).0")
    m2 = parse_session("role q = a!l(tt).0")
    assert struct_congruent(m1, m2)


def test_struct_congruent_sum_commutative():
    m1 = parse_session("role p = a!l1(tt).0 + b?l2(x).0")
    m2 = parse_session("role p = b?l2(x).0 + a!l1(tt).0")
    assert struct_congruent(m1, m2)


def test_struct_congruent_distinguishes_labels():
    m1 = parse_session("role p = a!l1(tt).0")
    m2 = parse_session("role p = a!l2(tt).0")
    assert not struct_congruent(m1, m2)


def test_success_not_congruent_to_nil():
    assert not struct_congruent(parse_session("role p = ok"), parse_session("role p = 0"))


def test_congruence_equivalence_and_parallel_congruence():
    rng = random.Random(7)
    for _ in range(300):
        m = gen_session(rng, ["p", "q", "r", "s"][: rng.randint(1, 4)], ["l1", "l2"], rng.randint(0, 4), "mcmp")
        assert struct_congruent(m, m)
        perm = Session(tuple(reversed(m.parts)))
        assert struct_congruent(m, perm)
        extra = Session(m.parts + (("zz", Nil()),))
        assert struct_congruent(m, extra)
        shuffled = Session(
            tuple(
                (n, Choice(tuple(reversed(p.branches))) if isinstance(p, Choice) else p)
                for n, p in m.parts
            )
        )
        assert struct_congruent(m, shuffled)


def test_alpha_equivalence_of_binders():
    p = parse_process("q?l(x).q!m(x).0")
    q = parse_process("q?l(y).q!m(y).0")
    assert alpha_equal(p, q)
    r = parse_process("q?l(y).q!m(tt).0")
    assert not alpha_equal(p, r)


@pytest.mark.parametrize("name", sorted(corpus.FAMILY_TABLE))
def test_family_classification_table(name):
    m, _ = corpus.load(name)
    got = classify(m)
    inside, outside = corpus.FAMILY_TABLE[name]
    assert inside <= got, f"{name}: missing {inside - got}"
    assert not (outside & got), f"{name}: unexpected {outside & got}"


def test_classify_nil_everywhere():
    assert classify(parse_session("role p = 0")) == set(syntax.SUBCALCULI)


def test_classify_monotone_on_lattice():
    implications = [
        ("BS", "SCBS"), ("SCBS", "MCBS"), ("MP", "SMP"), ("SMP", "DMP"),
        ("SMP", "SCMP"), ("DMP", "MSMP"), ("SCMP", "MSMP"), ("MSMP", "MCMP"),
        ("MCBS", "DMP"), ("SCBS", "SCMP"), ("BS", "MP"),
    ]
    rng = random.Random(11)
    sessions = [gen_session(rng, ["p", "q", "r"][: rng.randint(1, 3)], ["l1", "l2"], rng.randint(0, 3), "mcmp") for _ in range(300)]
    sessions += [corpus.load(n)[0] for n in sorted(corpus.SESSIONS)]
    for m in sessions:
        got = classify(m)
        for small, big in implications:
            if small in got:
                assert big in got, (render_session(m), small, big)


def test_apply_rename_identity_and_inverse():
    m, _ = corpus.load("election5")
    ident = {p: p for p in m.participants()}
    assert canon_session(apply_rename(m, ident)) == canon_session(m)
    sigma = corpus.ELECTION_SIGMA
    inverse = {v: k for k, v in sigma.items()}
    back = apply_rename(apply_rename(m, sigma), inverse)
    assert struct_congruent(back, m)


def test_rename_requires_bijection():
    m = parse_session("role p = q!l(tt).0 role q = p?l(x).0")
    with pytest.raises(syntax.McmpError):
        apply_rename(m, {"p": "q", "q": "q"})


def test_election_symmetric():
    m, _ = corpus.load("election5")
    assert is_symmetric(m, corpus.ELECTION_SIGMA)


def test_election_each_role_is_rotation_of_previous():
    m, _ = corpus.load("election5")
    sigma = corpus.ELECTION_SIGMA
    for src, dst in sigma.items():
        rotated = apply_rename(Session((("_", m.process_of(src)),)), sigma).parts[0][1]
        assert alpha_equal(m.process_of(dst), rotated)


def test_election_broken_symmetry():
    m, _ = corpus.load("election5")
    broken = Session(tuple((n, Nil() if n == "c" else p) for n, p in m.parts))
    assert not is_symmetric(broken, corpus.ELECTION_SIGMA)


def test_singleton_identity_symmetric():
    m = parse_session("role p = q!l(tt).0")
    assert is_symmetric(m, {"p": "p"})


def test_symmetry_requires_closed_renaming():
    m = parse_session("role p = q!l(tt).0 role q = p?l(x).0")
    with pytest.raises(syntax.McmpError):
        is_symmetric(m, {"p": "zz"})
