"""The tables in corpus.py and the files under fixtures/ name the same
protocols, and every one of them parses."""

import corpus
from mcmp import lcmv


def test_tables_name_exactly_the_fixture_files():
    listed = [f"{n}.mcmp" for n in corpus.SESSIONS + corpus.UNTYPED] + [f"{n}.cmv" for n in corpus.CMV]
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(p.name for p in corpus.FIXTURES.iterdir())
    names = set(corpus.SESSIONS + corpus.UNTYPED + corpus.CMV)
    assert set(corpus.FAMILY_TABLE) <= names
    for fixtures in corpus.ENCODING_FIXTURES.values():
        assert set(fixtures) <= names


def test_every_fixture_parses():
    for name in corpus.SESSIONS:
        m, delta = corpus.load(name)
        assert m.parts and delta is not None, name
    for name in corpus.UNTYPED:
        m, delta = corpus.load(name)
        assert m.parts and delta is None, name
    for name in corpus.CMV:
        lcmv.parse_cmv(corpus.text(name))
