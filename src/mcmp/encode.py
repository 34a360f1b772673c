"""The seven in-family encodings between subcalculi, their type
translations, the per-participant total order they rely on, and a bounded
executable harness for the good-encoding criteria.

The reserved labels enc_o, enc_i and reset never occur in source terms (the
parser rejects them), which keeps every encoding injective on labels.
"""

from __future__ import annotations

import json

from . import ltypes, semantics, syntax
from .ltypes import LocalContext, LocalType, TBranch, TChoice
from .lts import TruncatedError
from .semantics import explore, explore_many, weak_bisim_classes
from .syntax import (
    TT,
    Branch,
    Choice,
    McmpError,
    Prefix,
    Process,
    Session,
    _fresh,
    _record,
    choices,
    classify,
    free_names,
    is_reserved_label,
    session_participants,
)


@_record(frozen=True)
class EncodingId:
    name: str
    source: str
    target: str
    style: str  # 'o' | 'i' | 'oi' | 'per-peer' | 'lcmv'
    order_free: bool
    step_bound: int


ENCODINGS: dict[str, EncodingId] = {
    e.name: e
    for e in [
        EncodingId("scbs-bs", "SCBS", "BS", "o", True, 2),
        EncodingId("mcbs-scbs", "MCBS", "SCBS", "i", False, 3),
        EncodingId("mcbs-bs", "MCBS", "BS", "oi", False, 4),
        EncodingId("smp-mp", "SMP", "MP", "o", True, 2),
        EncodingId("dmp-smp", "DMP", "SMP", "i", False, 3),
        EncodingId("dmp-mp", "DMP", "MP", "oi", False, 4),
        EncodingId("mcmp-msmp", "MCMP", "MSMP", "per-peer", False, 3),
        EncodingId("lcmv-mcbs", "LCMV+", "MCBS", "lcmv", True, 2),
    ]
}


# an i or oi translation's text can be exponentially longer than the term
# (1.7e17 characters for a 100-message chain): encode prints at most
# MAX_ENCODE_TEXT, and verify-encoding, whose target's canonical forms spell
# out the same repetitions, explores from a root of at most MAX_VERIFY_TEXT
MAX_ENCODE_TEXT = 16 * 2**20
MAX_VERIFY_TEXT = 2**30


def encoding(name: str) -> EncodingId:
    if name not in ENCODINGS:
        raise McmpError(f"unknown encoding {name!r}; choose one of {sorted(ENCODINGS)}")
    return ENCODINGS[name]


# ---------------------------------------------------------------------------
# total order on participants


def _lu(rel: frozenset, f: set[str]) -> frozenset:
    a = {(p, q) for (p, q) in rel if p in f}
    names = {x for pair in a for x in pair}
    b = {(p, q) for (p, q) in rel if q in f and p not in names}
    return frozenset(a | b)


def _ru(rel: frozenset, f: set[str]) -> frozenset:
    a = {(p, q) for (p, q) in rel if q in f}
    names = {x for pair in a for x in pair}
    b = {(p, q) for (p, q) in rel if p in f and q not in names}
    return frozenset(a | b)


def _order_slices(names_in_order: tuple[str, ...], all_names: set[str]) -> dict[str, frozenset]:
    """Walk the left-nested parallel tree of names_in_order, seeding the
    root with the full irreflexive relation and filtering with lu on left
    branches, ru on right branches; each leaf keeps the pairs relevant for
    its own encoding.  Each right branch is a leaf, the last name of the
    subtree above it, so the walk goes from the last name down."""
    if len(names_in_order) == 1:
        return {names_in_order[0]: frozenset()}
    rel = frozenset((p, q) for p in sorted(all_names) for q in sorted(all_names) if p != q)
    left = set(names_in_order)
    slices = []
    for name in reversed(names_in_order[1:]):
        slices.append((name, _ru(rel, {name})))
        left.discard(name)
        rel = _lu(rel, left)
    slices.append((names_in_order[0], rel))
    return dict(reversed(slices))


def build_order(m: Session) -> dict[str, frozenset]:
    """Per-participant slice of the synthesized strict order; the parallel
    tree is the left-nested parse order of the roles."""
    return _order_slices(m.participants(), session_participants(m))


def order_of_context(delta: LocalContext) -> dict[str, frozenset]:
    mentioned = set(delta.domain())
    for _, t in delta.entries:
        mentioned |= ltypes.pt(t)
    return _order_slices(delta.domain(), mentioned)


@_record(frozen=True)
class _OrderView:
    me: str
    pairs: frozenset

    def less_than(self, peer: str) -> bool:
        if (self.me, peer) in self.pairs:
            return True
        if (peer, self.me) in self.pairs:
            return False
        raise McmpError(f"participants {self.me} and {peer} are unordered")


# ---------------------------------------------------------------------------
# translation tables, written once for processes and for types


class _Tables:
    """The o and i tables of the in-family encodings, with oi the o table
    applied to the top layer of the choice the i table builds (that choice
    is always separate).  A subclass supplies the term language, as scope
    and rule (see syntax._substitute) and the choice node type choice, and
    what the tables build with: head(b), a branch's peer and polarity;
    with_cont(b, cont); the announcements send(q, label, cont) and recv(q,
    label, cont); and guard(q, outs), the o table's outputs.

    An encoder is one translation's memo: walk(term, view) is computed once
    per subterm and view, so a continuation that a choice's translation
    repeats, or that several translated terms share, is one object."""

    def __init__(self, style: str):
        self.style = style
        self._memos: dict[_OrderView, dict] = {}

    def walk(self, term, view: _OrderView):
        def node(q, subs: list):
            if type(q) is self.choice:
                return self.translate_choice(tuple(zip(q.branches, subs)), view)
            return self.rule(q, subs, (), None, None)

        return syntax._rebuild(term, self.scope, node, self._memos.setdefault(view, {}))

    def translate_choice(self, pairs: tuple, view: _OrderView):
        """The translation of a choice, given as (branch, translated
        continuation) pairs."""
        if self.style == "per-peer":
            groups: dict[str, list] = {}
            for b, cont in pairs:
                groups.setdefault(self.head(b)[0], []).append((b, cont))
            out: list = []
            for q, group in groups.items():
                out.extend(self.table(group, q, "i", view))
            return self.choice(tuple(out))
        peers = {self.head(b)[0] for b, _ in pairs}
        if len(peers) != 1:
            raise McmpError(self.SEVERAL_PEERS)
        return self.choice(self.table(pairs, peers.pop(), self.style, view))

    def table(self, pairs, q: str, style: str, view: _OrderView) -> tuple:
        """The branches that one choice toward q translates to."""
        outs = tuple(self.with_cont(b, cont) for b, cont in pairs if self.head(b)[1] == "!")
        ins = tuple(self.with_cont(b, cont) for b, cont in pairs if self.head(b)[1] == "?")
        if style == "o" and outs and ins:
            raise McmpError(self.MIXED)
        if style != "o":
            top = self.i_table(outs, ins, q, view.less_than(q))
            if style == "i":
                return top
            # oi: the o table on the top layer of the i table's choice
            outs, ins = (top, ()) if self.head(top[0])[1] == "!" else ((), top)
        # the o table
        return self.guard(q, outs) if outs else (self.send(q, "enc_o", self.choice(ins)),)

    def i_table(self, outs: tuple, ins: tuple, q: str, less: bool) -> tuple:
        """The i table on a choice's translated outputs and inputs toward q;
        less tells whether the choice's owner is below q."""
        if outs and ins:
            if less:
                return outs + (self.send(q, "enc_i", self.choice(ins + (self.recv(q, "reset", self.choice(outs)),))),)
            return ins + (self.recv(q, "enc_i", self.choice(outs)),)
        if outs:
            return outs if less else (self.recv(q, "enc_i", self.choice(outs)),)
        if less:
            return (self.send(q, "enc_i", self.choice(ins)),)
        return ins + (self.recv(q, "enc_i", self.choice((self.send(q, "reset", self.choice(ins)),))),)


def _dummy_var(cont: Process) -> str:
    """The binder of a received value that cont ignores: the smallest w<n>
    not free in cont, so equal continuations get equal binders."""
    return _fresh("w", free_names(cont))


class _Encoder(_Tables):
    SEVERAL_PEERS = "source choice addresses several participants; not in the source fragment"
    MIXED = "separate-choice source required, found a mixed choice"
    scope = staticmethod(syntax._scope)
    rule = staticmethod(syntax._rule)
    choice = Choice

    @staticmethod
    def head(b: Branch) -> tuple[str, str]:
        return b.prefix.target, b.prefix.polarity

    @staticmethod
    def with_cont(b: Branch, cont: Process) -> Branch:
        return Branch(b.prefix, cont)

    @staticmethod
    def send(q: str, label: str, cont: Process) -> Branch:
        return Branch(Prefix(q, "!", label, payload=TT), cont)

    @staticmethod
    def recv(q: str, label: str, cont: Process) -> Branch:
        return Branch(Prefix(q, "?", label, var=_dummy_var(cont)), cont)

    def guard(self, q: str, outs: tuple) -> tuple:
        # each output waits for its own announcement
        return tuple(self.recv(q, "enc_o", Choice((b,))) for b in outs)


class _TypeEncoder(_Tables):
    SEVERAL_PEERS = "type choice addresses several participants; no translation given"
    MIXED = "mixed choice type has no separate-choice translation"
    scope = staticmethod(ltypes._scope)
    rule = staticmethod(ltypes._rule)
    choice = TChoice

    @staticmethod
    def head(b: TBranch) -> tuple[str, str]:
        return b.target, b.polarity

    @staticmethod
    def with_cont(b: TBranch, cont: LocalType) -> TBranch:
        return TBranch(b.target, b.polarity, b.label, b.payload, cont)

    @staticmethod
    def send(q: str, label: str, cont: LocalType) -> TBranch:
        return TBranch(q, "!", label, "bool", cont)

    @staticmethod
    def recv(q: str, label: str, cont: LocalType) -> TBranch:
        return TBranch(q, "?", label, "bool", cont)

    def guard(self, q: str, outs: tuple) -> tuple:
        # a well-formed type cannot repeat enc_o, so the outputs share one announcement
        return (self.recv(q, "enc_o", TChoice(outs)),)


def _check_no_reserved(m: Session) -> None:
    for _, proc in m.parts:
        for c in choices(proc):
            for b in c.branches:
                if is_reserved_label(b.prefix.label):
                    raise McmpError(f"label {b.prefix.label!r} is reserved for encodings")


def _translator(m: Session, e: EncodingId, order: dict[str, frozenset] | None = None):
    """The translation of m by e, as a function that also translates every
    session m reduces to: reduction keeps a session in its fragment and
    brings in no label, so only m is checked.  All translations share one
    encoder, and with it every subterm they have in common."""
    if e.style == "lcmv":
        raise McmpError("lcmv-mcbs encodes CmvProcess programs; use mcmp.lcmv.encode_lcmv_to_mcbs")
    if e.source not in classify(m):
        raise McmpError(f"session is not in the source fragment {e.source}")
    _check_no_reserved(m)
    slices = order if order is not None else build_order(m)
    views = {p: _OrderView(p, slices.get(p, frozenset())) for p in m.participants()}
    if e.style != "o":
        # the walk translates a choice after its continuations, so the
        # order is read here first, outermost choice first: the unordered
        # pair reported is the first one met reading the term
        for p, proc in m.parts:
            for c in choices(proc):
                for b in c.branches:
                    views[p].less_than(b.prefix.target)
    encoder = _Encoder(e.style)
    return lambda s: Session(tuple((p, encoder.walk(proc, views[p])) for p, proc in s.parts))


def encode(m: Session, enc_id: str | EncodingId, order: dict[str, frozenset] | None = None) -> Session:
    """Translate a session by the named encoding; homomorphic on everything
    but choices, which follow the translation table of the encoding."""
    e = encoding(enc_id) if isinstance(enc_id, str) else enc_id
    return _translator(m, e, order)(m)


def encode_process(proc: Process, participant: str, pairs: frozenset, enc_id: str | EncodingId) -> Process:
    e = encoding(enc_id) if isinstance(enc_id, str) else enc_id
    return _Encoder(e.style).walk(proc, _OrderView(participant, pairs))


def encode_types(delta: LocalContext, enc_id: str | EncodingId, order: dict[str, frozenset] | None = None) -> LocalContext:
    """Translate each local type by the tables of the named encoding."""
    e = encoding(enc_id) if isinstance(enc_id, str) else enc_id
    if e.style == "lcmv":
        raise McmpError("no type translation is defined for lcmv-mcbs")
    slices = order if order is not None else order_of_context(delta)
    encoder = _TypeEncoder(e.style)
    return LocalContext(tuple((p, encoder.walk(t, _OrderView(p, slices.get(p, frozenset())))) for p, t in delta.entries))


# ---------------------------------------------------------------------------
# good-encoding verification harness


@_record
class CorrespondenceReport:
    encoding: str
    completeness: bool
    soundness: bool
    success_sensitive: bool
    divergence_reflected_to_bound: bool
    distributability_preserved: bool
    max_emulation_factor: int
    step_bound: int
    failures: list[dict] = ()

    def passed(self) -> bool:
        return (
            self.completeness
            and self.soundness
            and self.success_sensitive
            and self.divergence_reflected_to_bound
            and self.distributability_preserved
            and self.max_emulation_factor <= self.step_bound
        )

    def to_json(self) -> str:
        return json.dumps({**{n: getattr(self, n) for n in self.__match_args__}, "passed": self.passed()}, sort_keys=True, indent=2)


def verify_correspondence(
    m: Session,
    enc_id: str | EncodingId,
    max_states: int = semantics.DEFAULT_MAX_STATES,
    max_depth: int = semantics.DEFAULT_MAX_DEPTH,
) -> CorrespondenceReport:
    """Bounded executable check of operational correspondence, success
    sensitiveness, divergence reflection and distributability preservation
    for one source session."""
    e = encoding(enc_id) if isinstance(enc_id, str) else enc_id
    # a truncated source is reported before the translator checks the root
    source = explore(m, max_states=max_states, max_depth=max_depth).complete("source exploration")
    root = source.states[source.root]
    slices = build_order(m)

    def distributability(target_root: Session) -> list[str]:
        # each participant component of the target is the translation of the
        # matching component of the explored root, whose top-level
        # recursions are unfolded (same order slices)
        return [
            p
            for p, proc in root.parts
            if not syntax.alpha_equal(encode_process(proc, p, slices.get(p, frozenset()), e), target_root.process_of(p))
        ]

    translate = _translator(root, e, slices)
    size = syntax.render_length(translate(root))
    if size > MAX_VERIFY_TEXT:
        raise TruncatedError(f"the translated root's text has {size} characters, past verify-encoding's bound of {MAX_VERIFY_TEXT >> 30} GiB")
    return _correspondence(e, source, translate, semantics.has_success, distributability, max_states, max_depth)


def _correspondence(
    e: EncodingId, source, translate, has_success, distributability, max_states: int, max_depth: int
) -> CorrespondenceReport:
    """The good-encoding criteria for the explored source graph: translate
    maps a source state to its target session, has_success tells whether a
    source state shows success, and distributability lists the participants
    of the root's translation that are not the translation of their own
    source component."""
    encoded = [translate(s) for s in source.complete("source exploration").states]
    joint = explore_many(encoded, max_states=max_states, max_depth=max_depth).complete("target exploration")
    classes = weak_bisim_classes(joint, frozenset({"success"}))
    root_class = [classes[n] for n in joint.roots]
    start = joint.roots[source.root]

    failures: list[dict] = []

    # completeness: every source edge has a target emulation path; the
    # emulation length is the distance to the literal translation of the
    # derivative when reachable, else to a bisimilar state
    max_factor = 0
    completeness = True
    for i in range(len(source.work)):
        for step, j in source.successors(i):
            literal = joint.congruence[joint.roots[j]]
            dist = joint.distance(joint.roots[i], lambda n: joint.congruence[n] == literal)
            if dist is None:
                dist = joint.distance(joint.roots[i], lambda n: classes[n] == root_class[j])
            if dist is None:
                completeness = False
                failures.append({"criterion": "completeness", "source_step": step.describe(), "from_state": i})
            else:
                max_factor = max(max_factor, dist)

    # soundness: every target derivative can complete to the encoding of a
    # source derivative
    done_classes = set(root_class)
    completes = joint.coreachable(lambda k: classes[k] in done_classes)
    stranded = next((n for n in joint.reachable(start) if not completes[n]), None)
    soundness = stranded is None
    if not soundness:
        failures.append({"criterion": "soundness", "stranded_target_state": stranded})

    # success sensitiveness on the roots
    src_succ = any(has_success(source.states[i]) for i in source.reachable(source.root))
    tgt_succ = semantics.may_succeed(joint, start)
    success_sensitive = src_succ == tgt_succ
    if not success_sensitive:
        failures.append({"criterion": "success", "source": src_succ, "target": tgt_succ})

    # divergence reflection: a target cycle implies a source cycle
    divergence_ok = not joint.has_cycle(start) or source.has_cycle(source.root)
    if not divergence_ok:
        failures.append({"criterion": "divergence"})

    failing = distributability(encoded[source.root])
    for p in failing:
        failures.append({"criterion": "distributability", "participant": p})

    return CorrespondenceReport(
        encoding=e.name,
        completeness=completeness,
        soundness=soundness,
        success_sensitive=success_sensitive,
        divergence_reflected_to_bound=divergence_ok,
        distributability_preserved=not failing,
        max_emulation_factor=max_factor,
        step_bound=e.step_bound,
        failures=failures,
    )


def verify_name_invariance(m: Session, enc_id: str | EncodingId, sigma: dict[str, str],
                           max_states: int = semantics.DEFAULT_MAX_STATES,
                           max_depth: int = semantics.DEFAULT_MAX_DEPTH) -> bool:
    """encode(M sigma) against encode(M) sigma: syntactic (alpha) equality for
    the order-free encodings, weak bisimilarity otherwise."""
    e = encoding(enc_id) if isinstance(enc_id, str) else enc_id
    renamed = syntax.apply_rename(m, sigma)
    enc_renamed = encode(renamed, e)
    renamed_enc = syntax.apply_rename(encode(m, e), sigma)
    if e.order_free:
        return syntax.canon_session(enc_renamed) == syntax.canon_session(renamed_enc)
    joint = explore_many([enc_renamed, renamed_enc], max_states=max_states, max_depth=max_depth)
    joint.complete("name-invariance exploration")
    return semantics.weak_bisimilar(joint, joint.roots[0], joint.roots[1])
