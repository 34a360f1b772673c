"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns the source text
together with answers known by construction: the reachable-state count from
a closed form and the verdicts the paper's theorems fix.  The seed picks
participant names, labels, variables and payloads.  The shape stays fixed:
message directions alternate, the same side ends at ``ok``, and roles are
declared in a fixed order.  That order fixes the order the encodings
synthesise, and with it the size of the encoded state spaces, so every seed
asks for the same amount of work.  Nothing here imports the library.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Generated:
    text: str
    states: int  # reachable states of the session, and of its declared context
    facts: dict = field(default_factory=dict)


class _Names:
    """Distinct identifiers: a fixed prefix letter (so no keyword can come
    out), random lowercase letters, and a serial number."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.serial = 0

    def __call__(self, prefix: str) -> str:
        self.serial += 1
        tail = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(3))
        return f"{prefix}{tail}{self.serial}"


def _payload(rng: random.Random) -> tuple[str, str]:
    """A literal and its payload type."""
    if rng.random() < 0.5:
        return rng.choice(("tt", "ff")), "bool"
    return str(rng.randrange(1000)), "nat"


def _message(rng, names, sender, receiver, label):
    """The two process prefixes and two type prefixes of one message."""
    value, sort = _payload(rng)
    var = names("v")
    return (
        {sender: f"{receiver}!{label}({value})", receiver: f"{sender}?{label}({var})"},
        {sender: f"{receiver}!{label}({sort})", receiver: f"{sender}?{label}({sort})"},
    )


def _chain(rng, names, p, q, labels):
    """Process and type prefix lists of a message chain between p and q,
    alternating direction, p sending first."""
    procs = {p: [], q: []}
    types = {p: [], q: []}
    for i, label in enumerate(labels):
        sender, receiver = (p, q) if i % 2 == 0 else (q, p)
        mp, mt = _message(rng, names, sender, receiver, label)
        for who in (p, q):
            procs[who].append(mp[who])
            types[who].append(mt[who])
    return procs, types


def _source(roles: list[tuple[str, str]], types: list[tuple[str, str]]) -> str:
    body = "\n".join(f"role {name} = {proc}" for name, proc in roles)
    entries = "\n".join(f"  {name}: {t}" for name, t in types)
    return f"{body}\ntypes {{\n{entries}\n}}\n"


def pairs(rng: random.Random, n: int, station: bool = False) -> Generated:
    """n independent mixed-choice pairs.  In each pair one side may start a
    3-message chain and the other may instead send an escape; both branches
    end with the initiator at ``ok``, so a pair has 4 states and the session
    4^n.  Directed mixed choice (DMP): safe, deadlock-free, no M pattern.

    With ``station``, the first pair's initiator announces to an extra
    station participant at the end of both branches, so every maximal run
    has exactly one announcer (electoral by construction) and the first pair
    has 5 states: 5 * 4^(n-1) in all."""
    names = _Names(rng)
    roles, types = [], []
    station_name, elect = names("w"), names("k")
    initiator0 = None
    for i in range(n):
        p, q = names("p"), names("q")
        chain = [names("m") for _ in range(3)]
        esc = names("s")
        procs, ptypes = _chain(rng, names, p, q, chain)
        mp, mt = _message(rng, names, q, p, esc)
        tails = {p: "ok", q: "0"}
        ttails = {p: "end", q: "end"}
        if station and i == 0:
            initiator0 = p
            value, elect_sort = _payload(rng)
            tails[p] = f"{station_name}!{elect}({value}).{tails[p]}"
            ttails[p] = f"{station_name}!{elect}({elect_sort}).end"
        for w in (p, q):
            roles.append((w, ".".join(procs[w] + [tails[w]]) + f" + {mp[w]}.{tails[w]}"))
            types.append((w, ".".join(ptypes[w] + [ttails[w]]) + f" + {mt[w]}.{ttails[w]}"))
    states = 4**n
    facts = {}
    if station:
        var = names("v")
        roles.append((station_name, f"{initiator0}?{elect}({var}).0"))
        types.append((station_name, f"{initiator0}?{elect}({elect_sort}).end"))
        states = 5 * 4 ** (n - 1)
        facts = {"station": station_name, "label": elect}
    return Generated(_source(roles, types), states, facts)


def chain(rng: random.Random, k: int) -> Generated:
    """Two participants exchanging k messages in alternating directions; the
    one that starts ends at ``ok``.  Single-prefix choices only (SCBS,
    indeed BS): k+1 states, safe, deadlock-free, and a run of k steps ending
    in success."""
    names = _Names(rng)
    p, q = names("p"), names("q")
    labels = [names("m") for _ in range(k)]
    procs, ptypes = _chain(rng, names, p, q, labels)
    final = {p: "ok", q: "0"}
    roles = [(w, ".".join(procs[w] + [final[w]])) for w in (p, q)]
    types = [(w, ".".join(ptypes[w] + ["end"])) for w in (p, q)]
    return Generated(_source(roles, types), k + 1, {"final": final, "labels": labels})


def loop(rng: random.Random, k: int) -> Generated:
    """A recursive loop: at its head one participant either starts a
    k-message body that returns to the head, or sends a stop message after
    which the stopping side is ``ok``.  k+1 states, safe, deadlock-free,
    binary separate choice, no M pattern.  Body labels sort before the stop
    label, so the first-enabled-step run goes round the body forever."""
    names = _Names(rng)
    p, q = names("p"), names("q")
    labels = [names("a") for _ in range(k)]
    stop = names("z")
    procs, ptypes = _chain(rng, names, p, q, labels)
    mp, mt = _message(rng, names, p, q, stop)
    roles, types = [], []
    for w, var in ((p, "X"), (q, "Y")):
        tail = "ok" if w == p else "0"
        roles.append((w, f"rec {var}.(" + ".".join(procs[w] + [var]) + f" + {mp[w]}.{tail})"))
        types.append((w, "rec t.(" + ".".join(ptypes[w] + ["t"]) + f" + {mt[w]}.end)"))
    # after whole rounds of the body every participant is back at its role
    return Generated(_source(roles, types), k + 1, {"labels": labels, "roles": dict(roles)})


def cmv_chain(rng: random.Random, k: int) -> Generated:
    """A linear mixed-sessions program: the two endpoints of one channel
    exchange k messages in alternating directions, the second endpoint
    ending at ``ok``.  k+1 states; linear and typable, so ``cmv check``
    accepts it and the lcmv-mcbs encoding is good."""
    names = _Names(rng)
    x, y = names("x"), names("y")
    sides = {x: [], y: []}
    for i in range(k):
        label = names("m")
        sender = x if i % 2 == 0 else y
        value, _ = _payload(rng)
        var = names("v")
        for w in (x, y):
            sides[w].append(f"lin {w} ({label}!{value}." if w == sender else f"lin {w} ({label}?{var}.")

    def nest(w):
        tail = "ok" if w == y else "0"
        return " ".join(sides[w]) + " " + tail + ")" * k

    return Generated(f"(new {x} {y})({nest(x)} | {nest(y)})\n", k + 1)
