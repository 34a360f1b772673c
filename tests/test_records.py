"""Every record class of mcmp, made by syntax._record, against a twin that
dataclasses makes from the same class body with the same options: the same
fields, signature and defaults, ==, hash, repr and __match_args__, and
assignment that raises on a frozen record.  The instances compared are the
ones the commands build on the fixtures.  Also: main pauses the cyclic
collector for the command and leaves it as it found it."""

import contextlib
import dataclasses
import gc
import inspect
import io
import re
import textwrap
import weakref
from pathlib import Path

import pytest

from mcmp import cli, encode, lcmv, lts, ltypes, patterns, semantics, syntax, typecheck

FIX = Path(__file__).resolve().parent.parent / "fixtures"
MODULES = (syntax, ltypes, lts, semantics, typecheck, encode, lcmv, patterns)
RECORDS = [
    c
    for m in MODULES
    for c in vars(m).values()
    if isinstance(c, type) and c.__module__ == m.__name__ and c.__repr__ is syntax._repr
]

COMMANDS = [
    ["check", "ex_typed1.mcmp"],
    ["check", "m_scmp.mcmp"],
    ["check", "p11.mcmp"],
    ["check", "pingpong_rec.mcmp"],
    ["df", "election5.mcmp"],
    ["simulate", "cond_demo.mcmp"],
    ["simulate", "p4.mcmp"],
    ["detect", "m_scmp.mcmp", "--pattern", "m"],
    ["detect", "star_msmp.mcmp", "--pattern", "star"],
    ["electoral", "election5.mcmp", "--station", "station", "--label", "elect"],
    ["encode", "pingpong_rec.mcmp", "--via", "mcbs-bs"],
    ["verify-encoding", "mixed2.mcmp", "--via", "mcbs-scbs"],
    ["verify-encoding", "pingpong_rec.mcmp", "--via", "mcbs-scbs"],
    ["verify-encoding", "cmv_mixed.cmv", "--via", "lcmv-mcbs"],
    ["cmv", "check", "cmv_mixed.cmv"],
    ["cmv", "check", "cmv_chain.cmv"],
    ["verify-encoding", "cmv_m_witness.cmv", "--via", "lcmv-mcbs"],
]


def _options(cls) -> dict:
    return {"frozen": cls.__setattr__ is syntax._frozen, "slots": "__slots__" in vars(cls), "eq": "__eq__" in vars(cls)}


def _twins() -> dict:
    """Each record class's twin: its own class body under dataclass, with
    the twin of a record base as its base."""
    twins: dict = {}
    for cls in sorted(RECORDS, key=lambda c: len(c.__mro__)):
        source = textwrap.dedent(inspect.getsource(cls))
        source = re.sub(r"^@_record", "@dataclasses.dataclass", source)
        namespace = dict(vars(inspect.getmodule(cls)), dataclasses=dataclasses)
        for base in cls.__bases__:
            if base in twins:
                source = source.replace(f"(lts.{base.__name__})", "(_twin_base)")
                namespace["_twin_base"] = twins[base]
        exec(compile("from __future__ import annotations\n" + source, inspect.getfile(cls), "exec"), namespace)
        twins[cls] = namespace[cls.__name__]
    return twins


TWINS = _twins()


# a received value sent on, which no fixture does
FORWARD = "role p = q!l(3).0\nrole q = p?l(x).r!m(x).0\nrole r = q?m(y).ok\n"


@pytest.fixture(scope="module")
def instances() -> dict:
    return _harvest()


def _harvest() -> dict:
    """Up to three instances of each record class: the ones in the modules'
    globals, then the first ones the commands build."""
    seen: dict = {cls: [] for cls in RECORDS}

    def keep(value):
        if type(value) in seen and len(seen[type(value)]) < 3:
            seen[type(value)].append(value)

    for m in MODULES:
        for value in vars(m).values():
            for v in value.values() if isinstance(value, dict) else (value,):
                keep(v)
    inits = {cls: vars(cls)["__init__"] for cls in RECORDS}

    def recorder(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            keep(self)
        return __init__

    try:
        for cls, init in inits.items():
            cls.__init__ = recorder(init)
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["--json"] + [str(FIX / a) if a.endswith((".mcmp", ".cmv")) else a for a in argv])
        semantics.explore(syntax.parse_session(FORWARD))
    finally:
        for cls, init in inits.items():
            cls.__init__ = init
    return seen


def test_every_record_class_is_found():
    assert len(RECORDS) == 41
    assert {c.__name__ for c in RECORDS} >= {"Prefix", "Session", "TChoice", "CChoice", "Graph", "StateGraph",
                                             "ContextGraph", "CorrespondenceReport", "_Views", "CmvChoiceT"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_record_is_its_dataclass_twin(cls, instances):
    twin = TWINS[cls]
    options = _options(cls)
    assert tuple(f.name for f in dataclasses.fields(twin)) == cls.__match_args__ == twin.__match_args__
    assert twin.__dataclass_params__.frozen == options["frozen"]
    assert twin.__dataclass_params__.eq == options["eq"]
    assert ("__slots__" in vars(twin)) == options["slots"]
    if options["slots"]:
        assert cls.__slots__ == twin.__slots__
    signature = [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
    assert signature == [(p.name, p.kind, p.default) for p in inspect.signature(twin).parameters.values()]
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    if not options["eq"]:
        assert cls.__eq__ is twin.__eq__ is object.__eq__ and cls.__hash__ is twin.__hash__

    found = instances[cls]
    assert found, f"no command built a {cls.__name__}"
    pairs = []
    for record in found:
        values = [getattr(record, n) for n in cls.__match_args__]
        named = dict(zip(cls.__match_args__, values))
        same = twin(*values)
        pairs.append((record, same))
        assert repr(record) == repr(same)
        assert repr(cls(*values)) == repr(cls(**named)) == repr(record)
        assert (cls(*values) == record) == (twin(*values) == same) == (cls(**named) == record)
        assert record.__eq__(same) is NotImplemented if options["eq"] else record != same
        if options["frozen"] and options["eq"]:
            assert hash(record) == hash(same) == hash(cls(**named))
        if "__weakref__" in dir(cls):
            assert weakref.ref(record)() is record
        if options["frozen"]:
            # (a frozen slots dataclass without fields raises TypeError here)
            name = cls.__match_args__[0] if values else "x"
            for target in (record, same) if values else (record,):
                with pytest.raises(AttributeError):
                    setattr(target, name, values[0] if values else 1)
                with pytest.raises(AttributeError):
                    delattr(target, name)
        elif values:
            copy, twin_copy = cls(*values), twin(*values)
            copy.__setattr__(cls.__match_args__[0], values[0])
            twin_copy.__setattr__(cls.__match_args__[0], values[0])
            assert copy == record and twin_copy == same
    for (a, ta), (b, tb) in zip(pairs, pairs[1:]):
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)


@pytest.mark.parametrize("cls", [c for c in RECORDS if hasattr(c, "__post_init__")], ids=lambda c: c.__name__)
def test_construction_runs_post_init(cls, instances, monkeypatch):
    calls = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(self))
    record = cls(*[getattr(instances[cls][0], n) for n in cls.__match_args__])
    assert len(calls) == 1 and calls[0] is record


def test_match_reads_the_fields():
    match syntax.parse_process("p!l(3).0"):
        case syntax.Choice((syntax.Branch(syntax.Prefix(target, "!", label, syntax.NatVal(value)), syntax.Nil()),)):
            assert (target, label, value) == ("p", "l", 3)
        case _:
            pytest.fail("the choice did not match")


def test_report_fields_are_the_dataclass_fields(instances):
    twin = TWINS[encode.CorrespondenceReport]
    for report in instances[encode.CorrespondenceReport]:
        same = twin(*[getattr(report, n) for n in report.__match_args__])
        assert list(syntax._fields(report).items()) == list(dataclasses.asdict(same).items())
    assert list(encode.CorrespondenceReport("e", True, True, True, True, True, 1, 2).failures) == []


# ---------------------------------------------------------------------------
# the cyclic collector


@pytest.mark.parametrize("collecting", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize(
    "argv,code",
    [
        (["classify", str(FIX / "ping.mcmp")], 0),
        (["check", str(FIX / "missing.mcmp")], 2),
        (["--max-states", "10", "check", str(FIX / "election5.mcmp")], 3),
        (["--json", "encode", str(FIX / "ping.mcmp"), "--via", "nope"], SystemExit),
    ],
    ids=["exit 0", "exit 2", "exit 3", "usage error"],
)
def test_main_leaves_the_collector_as_it_found_it(collecting, argv, code, monkeypatch, capsys):
    during = []
    run = cli.cmd_classify
    monkeypatch.setattr(cli, "cmd_classify", lambda args: during.append(gc.isenabled()) or run(args))
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if code is SystemExit:
            with pytest.raises(SystemExit):
                cli.main(argv)
        else:
            assert cli.main(argv) == code
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if before else gc.disable)()
    capsys.readouterr()
    assert during == ([False] if argv[0] == "classify" else [])
