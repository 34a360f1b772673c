"""The session parser against a recursive reader, on deep input and on
guarded recursion nested deeper than any fixed unfolding budget.

The oracle is the recursive reader the session grammar had before the
prefix loop: parse_unary and parse_atom call each other once per prefix,
and parse_tunary calls itself.  Both readers must give the same rendered
term, or the same error class and message, on every fixture cut at each
character and with each character deleted, and on the benchmark inputs."""

import random
import sys
from pathlib import Path

import pytest

from mcmp import cli, ltypes, syntax
from mcmp.syntax import (
    Branch,
    Choice,
    Cond,
    McmpError,
    Nil,
    ParseError,
    Prefix,
    ProcVar,
    Rec,
    Success,
    head_normal,
    parse_source,
    render_session,
)

import corpus

ROOT = Path(__file__).resolve().parent.parent


def _unguarded_procvar(proc, var: str) -> bool:
    """True iff var occurs in proc not under a prefix or conditional."""
    while isinstance(proc, Rec):
        if proc.var == var:
            return False
        proc = proc.body
    return isinstance(proc, ProcVar) and proc.name == var


class _RecursiveParser(syntax._Parser):
    """The session grammar read by recursion, one frame per prefix."""

    def parse_unary(self):
        t = self.peek()
        if t.kind in ("ident", "kw") and self.peek(1).kind in ("!", "?"):
            return self.parse_atom()
        if t.kind == "nat" and t.text == "0":
            self.next()
            return Nil()
        if t.kind == "kw" and t.text == "ok":
            self.next()
            return Success()
        if t.kind == "kw" and t.text == "rec":
            self.next()
            var = self.expect("ident").text
            self.expect(".")
            body = self.parse_unary()
            if _unguarded_procvar(body, var):
                raise ParseError(f"recursion rec {var} is not guarded", t.line, t.col)
            return Rec(var, body)
        if t.kind == "kw" and t.text == "if":
            self.next()
            guard = self.parse_value()
            self.expect("kw", "then")
            then = self.parse_process()
            self.expect("kw", "else")
            els = self.parse_process()
            return Cond(guard, then, els)
        if t.kind == "(":
            self.next()
            inner = self.parse_process()
            self.expect(")")
            return inner
        if t.kind == "ident" and t.text[0].isupper():
            self.next()
            return ProcVar(t.text)
        raise self.error(f"expected a process, found {t.text!r}")

    def parse_atom(self):
        target = self.expect_name()
        pol = self.next()
        label = self.parse_label()
        self.expect("(")
        if pol.kind == "!":
            prefix = Prefix(target.text, "!", label, payload=self.parse_value())
        else:
            prefix = Prefix(target.text, "?", label, var=self.expect_name().text)
        self.expect(")")
        self.expect(".")
        return Choice((Branch(prefix, self.parse_unary()),))

    def parse_tunary(self):
        t = self.peek()
        if t.kind in ("ident", "kw") and self.peek(1).kind in ("!", "?"):
            target = self.next().text
            pol = self.next().kind
            label = self.parse_label()
            self.expect("(")
            pt = self.next()
            if pt.kind != "kw" or pt.text not in ("nat", "bool"):
                raise ParseError("expected payload type nat or bool", pt.line, pt.col)
            self.expect(")")
            self.expect(".")
            cont = self.parse_tunary()
            return ltypes.TChoice((ltypes.TBranch(target, pol, label, pt.text, cont),))
        if t.kind == "kw" and t.text == "end":
            self.next()
            return ltypes.End()
        if t.kind == "kw" and t.text == "rec":
            self.next()
            var = self.expect("ident").text
            self.expect(".")
            rec = ltypes.TRec(var, self.parse_tunary())
            if not ltypes.guarded(rec):
                raise ParseError(f"recursive type rec {var} is not guarded", t.line, t.col)
            return rec
        if t.kind == "(":
            self.next()
            inner = self.parse_ltype()
            self.expect(")")
            return inner
        if t.kind == "ident":
            self.next()
            return ltypes.TVar(t.text)
        raise self.error(f"expected a local type, found {t.text!r}")


def _outcome(parser_class, toks: list):
    """The rendered source parser_class reads from the tokens toks, or its
    error."""
    parser = parser_class("")
    parser.toks = toks
    try:
        m, ctx = parser.parse_session_file()
    except McmpError as err:
        return type(err), str(err)
    return render_session(m, ctx)


def _bench():
    """bench/run.py, which generates the benchmark's inputs (bench/gen.py)."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return run


def _bench_inputs(tmp_path) -> list[str]:
    """The session inputs of the statespace and deep workloads, seeds 1 and 7."""
    run = _bench()
    texts = []
    for seed in (1, 7):
        directory = tmp_path / str(seed)
        directory.mkdir()
        run.statespace_ops(random.Random(seed), directory)
        run.deep_ops(random.Random(seed), directory)
        texts += [path.read_text() for path in sorted(directory.glob("*.mcmp"))]
    return texts


def test_prefix_loop_reads_as_the_recursive_reader(tmp_path):
    variants = set(_bench_inputs(tmp_path))
    for path in sorted(corpus.FIXTURES.glob("*.mcmp")):
        text = path.read_text()
        variants |= {text[:i] for i in range(len(text))}
        variants |= {text[:i] + text[i + 1 :] for i in range(len(text))}
    outcomes = []
    for text in sorted(variants):
        try:
            toks = syntax._tokenize(text)
        except ParseError:
            continue  # the two readers share the lexer
        outcomes.append(_outcome(_RecursiveParser, toks))
        assert _outcome(syntax._Parser, toks) == outcomes[-1], text
    terms = sum(isinstance(o, str) for o in outcomes)
    assert 0 < terms < len(outcomes)  # the variants reach terms and errors


def test_oracle_reads_the_unguarded_binders():
    for text, message in (
        ("role p = rec X.rec Y.X", "1:10: recursion rec X is not guarded"),
        ("role p = rec X.(rec X.X)", "1:17: recursion rec X is not guarded"),
        ("role p = 0 types { p: rec t.(rec s.t) }", "1:23: recursive type rec t is not guarded"),
        ("role p = 0 types { p: rec t.rec t.t }", "1:29: recursive type rec t is not guarded"),
    ):
        toks = syntax._tokenize(text)
        assert _outcome(_RecursiveParser, toks) == _outcome(syntax._Parser, toks) == (ParseError, message)


def test_chain_of_any_length_parses_and_prints_back():
    # deeper than the recursion limit: the reader keeps no frame per prefix
    text = _bench().gen.chain(random.Random(1), 5000).text
    m, ctx = parse_source(text)
    assert render_session(m, ctx) == text
    with pytest.raises(RecursionError):
        _RecursiveParser(text).parse_session_file()


def _nest(binder: str, n: int, body: str) -> str:
    return "".join(f"rec {binder}{i}." for i in range(n)) + body


@pytest.mark.parametrize("command", ["simulate", "detect"])
def test_guarded_process_nest_of_70_binders_decides(tmp_path, capsys, command):
    path = tmp_path / "nest.mcmp"
    path.write_text(f"role p = {_nest('X', 70, 'q!l(tt).X0')}\nrole q = rec Y.p?l(x).Y\n")
    m, _ = parse_source(path.read_text())
    assert isinstance(head_normal(m.process_of("p")), Choice)
    argv = [command, str(path)] + (["--pattern", "m"] if command == "detect" else [])
    assert cli.main(argv) in (0, 1), capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "safety", "df"])
def test_guarded_type_nest_of_70_binders_decides(tmp_path, capsys, command):
    path = tmp_path / "nest.mcmp"
    path.write_text(
        f"role p = rec X.q!l(tt).X\nrole q = rec Y.p?l(x).Y\n"
        f"types {{\n  p: {_nest('t', 70, 'q!l(bool).t0')}\n  q: rec s.p?l(bool).s\n}}\n"
    )
    _, ctx = parse_source(path.read_text())
    assert isinstance(ltypes.head(ctx.type_of("p")), ltypes.TChoice)
    assert cli.main([command, str(path)]) in (0, 1), capsys.readouterr().out


def test_unguarded_terms_built_in_code_still_raise():
    with pytest.raises(McmpError, match="unguarded recursion"):
        head_normal(Rec("X", Rec("Y", ProcVar("X"))))
    with pytest.raises(ValueError, match="unguarded recursive type"):
        ltypes.head(ltypes.TRec("t", ltypes.TVar("t")))
