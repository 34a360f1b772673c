import pytest

from mcmp import lcmv, semantics, syntax
from mcmp.lcmv import (
    CChoice,
    CmvTypeError,
    CRes,
    check_cmv,
    cmv_canon,
    cmv_enabled,
    cmv_has_success,
    encode_lcmv_to_mcbs,
    explore_cmv,
    parse_cmv,
    reduce_cmv,
    render_cmv,
    verify_correspondence,
)

import corpus


def test_parse_two_choice_session():
    p = parse_cmv(corpus.text("cmv_ping"))
    assert isinstance(p, CRes)
    comps = lcmv._components(p.body)
    assert len(comps) == 2 and all(isinstance(c, CChoice) for c in comps)


def test_parse_m_witness():
    p = parse_cmv(corpus.text("cmv_m_witness"))
    assert isinstance(p, CRes)
    assert len(lcmv._components(p.body)) == 4


def test_un_qualifier_rejected():
    with pytest.raises(syntax.ParseError):
        parse_cmv("(new x y)(un x (l!tt.0) | lin y (l?z.0))")


def test_inner_restriction_rejected():
    with pytest.raises(syntax.ParseError):
        parse_cmv("(new x y)(lin x (l!tt. (new u v)(0)) | lin y (l?z.0))")


def test_roundtrip():
    for name in corpus.CMV:
        p = parse_cmv(corpus.text(name))
        again = parse_cmv(render_cmv(p))
        assert cmv_canon(p) == cmv_canon(again), name


def test_reduce_ping():
    p = parse_cmv(corpus.text("cmv_ping"))
    succs = reduce_cmv(p)
    assert len(succs) == 1
    assert cmv_canon(succs[0]) == cmv_canon(parse_cmv("(new x y)(0)"))


def test_reduce_inact_empty():
    assert reduce_cmv(parse_cmv("(new x y)(0)")) == []


def test_reduce_conditional():
    p = parse_cmv("(new x y)(if tt then ok else 0)")
    (succ,) = reduce_cmv(p)
    assert cmv_has_success(succ)


def test_m_witness_has_three_plus_steps_and_conflicts():
    p = parse_cmv(corpus.text("cmv_m_witness"))
    steps = cmv_enabled(p)
    # two senders x two receivers: four communication steps at the root
    assert len(steps) == 4
    from mcmp.patterns import detect_m

    witness = detect_m(p)
    assert witness is not None and witness.kind == "m"


def test_check_classifies_ping():
    p = parse_cmv(corpus.text("cmv_ping"))
    classes = check_cmv(p)
    comps = lcmv._components(p.body)
    x_choice = next(str(k) for k, c in enumerate(comps) if c.endpoint == "x")
    y_choice = next(str(k) for k, c in enumerate(comps) if c.endpoint == "y")
    # the solver prefers the first endpoint internal
    assert classes[x_choice] == "internal"
    assert classes[y_choice] == "external"


def test_check_rejects_unmatched_inputs_both_sides():
    with pytest.raises(CmvTypeError):
        check_cmv(parse_cmv(corpus.text("cmv_untypable")))


def test_check_rejects_parallel_endpoint_reuse():
    with pytest.raises(CmvTypeError):
        check_cmv(parse_cmv("(new x y)(lin x (l!tt.0) | lin x (l!tt.0) | lin y (l?z.0))"))


def test_check_accepts_deadlocked_component():
    p = parse_cmv(corpus.text("cmv_deadlocked"))
    classes = check_cmv(p)
    assert classes


def test_check_inact_trivial():
    assert check_cmv(parse_cmv("(new x y)(0)")) == {}


def test_encode_internal_output_clause():
    p = parse_cmv(corpus.text("cmv_ping"))
    enc = encode_lcmv_to_mcbs(p)
    assert syntax.render_process(enc.process_of("x")) == "y!l.o(tt).0"
    assert syntax.render_process(enc.process_of("y")) == "x?l.o(z).0"


def test_encode_internal_input_announces():
    p = parse_cmv("(new x y)(lin x (l?z.0) | lin y (l!tt.0))")
    enc = encode_lcmv_to_mcbs(p)
    x = syntax.render_process(enc.process_of("x"))
    assert x.startswith("y!l.i(tt).y?l(z).0")
    y = syntax.render_process(enc.process_of("y"))
    assert "x?l.i(" in y and "x!l(tt).0" in y


def test_encode_deadlocked_is_nil():
    p = parse_cmv(corpus.text("cmv_deadlocked"))
    enc = encode_lcmv_to_mcbs(p)
    assert len(enc.parts) == 1
    assert isinstance(enc.parts[0][1], syntax.Nil)


def test_encode_target_in_mcbs():
    for name in corpus.ENCODING_FIXTURES["lcmv-mcbs"]:
        p = parse_cmv(corpus.text(name))
        enc = encode_lcmv_to_mcbs(p)
        assert "MCBS" in syntax.classify(enc), name


def test_encode_success_sensitive_fixtures():
    for name in corpus.ENCODING_FIXTURES["lcmv-mcbs"]:
        p = parse_cmv(corpus.text(name))
        src = explore_cmv(p)
        src_succ = any(cmv_has_success(s) for s in src.states)
        enc = encode_lcmv_to_mcbs(p)
        g = semantics.explore(enc)
        assert src_succ == semantics.may_succeed(g, g.root), name


def test_encode_is_deterministic_across_calls():
    # ok<n> participants and z<n> binders are numbered afresh by each call
    for name in corpus.ENCODING_FIXTURES["lcmv-mcbs"]:
        p = parse_cmv(corpus.text(name))
        first = syntax.render_session(encode_lcmv_to_mcbs(p))
        assert syntax.render_session(encode_lcmv_to_mcbs(p)) == first, name


def test_correspondence_on_lcmv_fixtures():
    for name in corpus.ENCODING_FIXTURES["lcmv-mcbs"]:
        p = parse_cmv(corpus.text(name))
        report = verify_correspondence(p, max_states=5000, max_depth=128)
        assert report.passed(), (name, report.to_json())
        assert report.max_emulation_factor <= 2, name


# the same endpoint at the same protocol in both arms of a conditional: the
# classifier merges the arms' choices and must classify each of them
MERGED_OCCURRENCES = [
    "(new x y)(if ff then lin x (a!tt.ok + b!tt.0) else lin x (a!ff.ok + b!ff.0) | lin y (a?z.0))",
    "(new x y)(if tt then lin x (a!tt.lin x (c!tt.ok) + b!tt.0) else lin x (a!ff.lin x (c!ff.0) + b!ff.0)"
    " | lin y (a?z.lin y (c?w.0)))",
]


@pytest.mark.parametrize("text", MERGED_OCCURRENCES)
def test_check_classifies_merged_occurrences(text):
    p = parse_cmv(text)
    cond, _ = lcmv._components(p.body)
    classes = check_cmv(p)
    # y has no b?, so x's outermost choice must be the external one
    then_views = [classes[path] for path in _choice_paths(cond.then, "0.then")]
    assert then_views[0] == "external"
    assert [classes[path] for path in _choice_paths(cond.els, "0.else")] == then_views
    report = verify_correspondence(p, max_states=5000, max_depth=128)
    assert report.passed(), report.to_json()


def _choice_paths(p, path):
    """The paths of the choice occurrences in p, which sits at path."""
    match p:
        case CChoice(_, branches):
            return [path] + [c for k, b in enumerate(branches) for c in _choice_paths(b.cont, f"{path}.{k}")]
        case lcmv.CCond(_, t, e):
            return _choice_paths(t, f"{path}.then") + _choice_paths(e, f"{path}.else")
        case lcmv.CPar(l, r):
            return _choice_paths(l, f"{path}.l") + _choice_paths(r, f"{path}.r")
        case _:
            return []


def test_explore_cmv_canonical_merges_congruent():
    p = parse_cmv("(new x y)(0 | 0 | lin x (l!tt.0) | lin y (l?z.0))")
    q = parse_cmv("(new x y)(lin y (l?z.0) | lin x (l!tt.0))")
    assert cmv_canon(p) == cmv_canon(q)


_CLASSIFIED = '{\n  "choices": {\n    "0": "external",\n    "1": "internal"\n  },\n  "ok": true\n}\n'


def _rejected(message):
    return (2, '{\n  "error": "%s"\n}\n' % message.replace('"', '\\"'), 2, message + "\n")


# the .cmv grammar has no keywords: tt is a value only where a value is
# expected, and then and else are matched by their text
FRONT_END = [
    ("(new x y)(lin x (tt!1.0) | lin y (tt?z.0))",
     (0, _CLASSIFIED, 0, "role x = y?tt.i(z0).y!tt(1).0\nrole y = x!tt.i(tt).x?tt(z).0\n\n")),
    ("(new x y)(lin x (a!1.0) | lin y (a?tt.0))",
     (0, _CLASSIFIED, 0, "role x = y?a.i(z0).y!a(1).0\nrole y = x!a.i(tt).x?a(tt).0\n\n")),
    ("(new x y)(if tt then 0 els 0)", _rejected("1:24: expected else, found 'els'")),
    ("(new x y)(un x (l!tt.0) | lin y (l?z.0))", _rejected("1:11: unrestricted choices are outside the linear fragment")),
    ("(new x x)(0)", _rejected("1:2: restriction binds two distinct endpoints")),
    ("(new x y)(0) extra", _rejected("1:14: unexpected trailing input 'extra'")),
]


@pytest.mark.parametrize("text,expected", FRONT_END)
def test_front_end_exit_codes_and_output(text, expected, tmp_path, capsys):
    from mcmp import cli

    path = tmp_path / "program.cmv"
    path.write_text(text + "\n")
    got = []
    for argv in (["--json", "cmv", "check", str(path)], ["cmv", "encode", str(path)]):
        got.append(cli.main(argv))
        got.append(capsys.readouterr().out)
    assert tuple(got) == expected


@pytest.mark.parametrize("text", [text for text, expected in FRONT_END if expected[2] == 0]
                         + [pytest.param(corpus.text(name), id=name)
                            for name in ("cmv_chain", "cmv_deadlocked", "cmv_mixed", "cmv_ping")]
                         + [pytest.param(f"(new {kw} y)(lin {kw} (a!1.0) | lin y (a?z.0))", id=f"endpoint-{kw}")
                            for kw in sorted(syntax._KEYWORDS)])
def test_encode_output_parses_back(text, tmp_path, capsys):
    # a label, binder or endpoint named like a session keyword (tt) is read
    # back as a name, so the printed target is the translation
    from mcmp import cli

    path = tmp_path / "program.cmv"
    path.write_text(text + "\n")
    assert cli.main(["cmv", "encode", str(path)]) == 0
    back, _ = syntax.parse_source(capsys.readouterr().out, allow_reserved=True)
    assert syntax.canon_session(back) == syntax.canon_session(encode_lcmv_to_mcbs(parse_cmv(text)))
