"""The fixture corpus: the protocols under fixtures/, read from disk, and
the tables the tests check them against.  test_corpus.py keeps the tables
and the directory naming the same files."""

from __future__ import annotations

from pathlib import Path

from mcmp import syntax

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the typed session fixtures, by the status of their declared context,
# frozen from exhaustive context exploration
SAFE_DF = [
    "cond_demo",
    "dmp3",
    "election6",
    "ex_typed2",
    "m_mcbs",
    "m_mp",
    "mixed2",
    "out2",
    "ping",
    "pingpong_rec",
    "smp_pair",
]
SAFE_NOT_DF = [
    "election5",
    "ex_typed1",
    "star_msmp",
    "p1",
    "p2",
    "p3",
    "p4",
    "p5",
    "p6",
    "p7",
    "p8",
    "p9",
    "p10",
    "p11",
]
# m_scmp's context is deadlock-free but not safe: after its a-b step the
# witness exposes an output toward a participant listening on another label.
DF_NOT_SAFE = ["m_scmp"]

SESSIONS = sorted(SAFE_DF + SAFE_NOT_DF + DF_NOT_SAFE)
UNTYPED = ["label_error", "label_ok"]
CMV = ["cmv_chain", "cmv_deadlocked", "cmv_m_witness", "cmv_mixed", "cmv_ping", "cmv_untypable"]

# per-row memberships of the single-role family p1..p11 (peers a, b, c):
# (in, definitely-not-in)
FAMILY_TABLE = {
    "p1": ({"MCMP"}, {"MSMP", "SCMP", "DMP", "SMP", "MP", "MCBS", "SCBS", "BS"}),
    "p2": ({"MCMP", "MSMP"}, {"SCMP", "DMP", "SMP", "MP", "MCBS", "SCBS", "BS"}),
    "p3": ({"MCMP", "MSMP", "SCMP"}, {"DMP", "SMP", "MP", "MCBS", "SCBS", "BS"}),
    "p4": ({"MCMP", "MSMP", "DMP"}, {"SCMP", "SMP", "MP", "MCBS", "SCBS", "BS"}),
    "p5": ({"MCMP", "MSMP", "SCMP", "DMP", "SMP"}, {"MP", "MCBS", "SCBS", "BS"}),
    "p6": ({"MCMP", "MSMP", "SCMP", "DMP", "SMP", "MP"}, {"MCBS", "SCBS", "BS"}),
    "p7": ({"MCMP", "MSMP", "SCMP", "DMP", "SMP", "MP"}, {"MCBS", "SCBS", "BS"}),
    "p8": ({"MCMP", "MSMP", "DMP", "MCBS"}, {"SCMP", "SMP", "MP", "SCBS", "BS"}),
    "p9": ({"MCMP", "MSMP", "SCMP", "DMP", "SMP", "MCBS", "SCBS"}, {"MP", "BS"}),
    "p10": (set(syntax.SUBCALCULI), set()),
    "p11": (set(syntax.SUBCALCULI), set()),
}

# fixtures per encoding: in-fragment, convergent sources for the harness
ENCODING_FIXTURES: dict[str, list[str]] = {
    "scbs-bs": ["ping", "out2", "p9"],
    "mcbs-scbs": ["m_mcbs", "mixed2", "ping"],
    "mcbs-bs": ["m_mcbs", "mixed2", "ping"],
    "smp-mp": ["ping", "m_mp", "smp_pair"],
    "dmp-smp": ["mixed2", "dmp3", "m_mcbs"],
    "dmp-mp": ["mixed2", "dmp3"],
    "mcmp-msmp": ["m_scmp", "star_msmp", "election5", "mixed2", "cond_demo"],
    "lcmv-mcbs": ["cmv_ping", "cmv_chain", "cmv_mixed", "cmv_deadlocked"],
}

# the rotation that maps the election ring onto itself
ELECTION_SIGMA = {"a": "b", "b": "c", "c": "d", "d": "e", "e": "a"}


def text(name: str) -> str:
    """The text of the fixture called name, a session (.mcmp) or a program
    (.cmv)."""
    return (FIXTURES / (f"{name}.cmv" if name in CMV else f"{name}.mcmp")).read_text()


def load(name: str):
    """Parse a session fixture, returning (session, declared context)."""
    return syntax.parse_source(text(name))
