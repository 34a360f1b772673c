"""Command-line front end.

Exit codes: 0 when the command succeeds / the property holds, 1 when a
checked property fails (a witness is reported), 2 on usage or parse errors,
3 when a resource bound truncated the analysis.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import lts, syntax

OK, FAIL, USAGE, TRUNCATED = 0, 1, 2, 3


def main(argv: list[str] | None = None) -> int:
    # the cyclic collector is paused for the command: terms, tables and graphs
    # hold no cycles, so reference counting frees them, and a pass would only
    # walk them again; the few small cycles of a run wait for the next pass
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if hasattr(args, "run"):
            code = _run(args)
        else:
            parser.print_help()
            code = USAGE
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _drop_stdout()
        return code
    finally:
        if collecting:
            gc.enable()


def _run(args) -> int:
    """Run the command and emit its verdict, or the error that stopped it.
    The exit code: OK when the property holds or the command checks none,
    FAIL when it fails (the output gives the witness), USAGE on a usage,
    input or parse error, and TRUNCATED when a bound cut the analysis
    short."""
    try:
        holds, payload, human = args.run(args)
        code = FAIL if holds is False else OK
    except (lts.TruncatedError, RecursionError) as e:
        # subtyping, the .cmv translation and tuple < on deep forms (sorted
        # summands, tied .cmv steps in detect) recurse once per prefix
        message = "nesting depth: the input nests deeper than the recursion limit allows" if isinstance(e, RecursionError) else str(e)
        payload, human, code = {"error": message, "truncated": True}, f"truncated: {message}", TRUNCATED
    except (syntax.McmpError, ValueError, OSError) as e:  # OSError: FILE or --dot PATH unusable
        bare = isinstance(e, (syntax.ParseError, OSError))
        payload, human, code = {"error": str(e)}, str(e) if bare else f"error: {e}", USAGE
    _emit(args, payload, human)
    return code


def _global_flags(suppress: bool) -> argparse.ArgumentParser:
    # the copy attached to subparsers must not re-apply defaults, or it would
    # clobber flags given before the subcommand
    default = argparse.SUPPRESS if suppress else None
    shared = argparse.ArgumentParser(add_help=False, argument_default=default)
    shared.add_argument("--json", action="store_true", help="machine-readable output")
    shared.add_argument("--max-states", type=int, **({} if suppress else {"default": lts.DEFAULT_MAX_STATES}))
    shared.add_argument("--max-depth", type=int, **({} if suppress else {"default": lts.DEFAULT_MAX_DEPTH}))
    shared.add_argument("--dot", metavar="PATH", help="write the explored state graph as DOT")
    return shared


def _encoding(name: str) -> str:
    from .encode import ENCODINGS  # checked here, so that no other command loads the encodings
    if name not in ENCODINGS:
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {', '.join(map(repr, sorted(ENCODINGS)))})")
    return name


_VIA = ("--via", {"required": True, "type": _encoding, "metavar": "ID"})

# Each subcommand once, in the order help lists them: its name, its help,
# the arguments it takes after FILE, and the name of the cmd_* function that
# runs it, looked up when the parser is built.  A two-word name is a command
# of the group its first word names; a group runs no function of its own.
COMMANDS = (
    ("check", "type-check a session against its declared context", (), "cmd_check"),
    ("safety", "check the declared context is safe", (), "cmd_safety"),
    ("df", "check the declared context is deadlock-free", (), "cmd_df"),
    ("simulate", "run reductions, first enabled step each time",
     (("--max-steps", {"type": int, "default": 64}), ("--trace", {"action": "store_true"})), "cmd_simulate"),
    ("encode", "translate a session by one of the encodings", (_VIA,), "cmd_encode"),
    ("verify-encoding", "run the good-encoding harness", (_VIA,), "cmd_verify"),
    ("detect", "search for a synchronisation pattern", (("--pattern", {"required": True, "choices": ["m", "star"]}),), "cmd_detect"),
    ("classify", "list the subcalculi a session belongs to", (), "cmd_classify"),
    ("electoral", "check every maximal execution elects one leader",
     (("--station", {"required": True}), ("--label", {"required": True})), "cmd_electoral"),
    ("cmv", "linear mixed-sessions front end", (), None),
    ("cmv check", "classify choices as internal/external", (), "cmd_cmv_check"),
    ("cmv encode", "translate into mixed-choice binary sessions", (), "cmd_cmv_encode"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcmp", description=__doc__, parents=[_global_flags(False)])
    shared = _global_flags(True)
    groups = {"": parser.add_subparsers(dest="command")}
    for name, summary, arguments, run in COMMANDS:
        group, _, last = name.rpartition(" ")
        if run is None:
            groups[name] = groups[group].add_parser(name, help=summary).add_subparsers(dest=f"{name}_command")
            continue
        p = groups[group].add_parser(last, parents=[shared], help=summary)
        for flag, options in (("file", {}), *arguments):
            p.add_argument(flag, **options)
        p.set_defaults(run=globals()[run])
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(args, payload: dict, human: str | dict) -> None:
    """Write the payload as JSON under --json, else the human text, which a
    command gives as a dict when it is JSON too."""
    shown = payload if getattr(args, "json", False) else human
    _write((shown if isinstance(shown, str) else json.dumps(shown, sort_keys=True, indent=2)) + "\n")


def _write(text: str) -> None:
    """Write text to stdout.  Once the reader has closed the pipe, the rest
    of the output is dropped and the exit code stays the command's
    verdict."""
    try:
        sys.stdout.write(text)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout() -> None:
    # later writes, and the flush at exit, go to the null device
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _load_session(args, need_types: bool = False):
    session, context = syntax.parse_source(_read(args.file))
    if need_types and context is None:
        raise syntax.McmpError("this command needs a types { ... } block in the input")
    return session, context


def _write_dot(args, graph) -> None:
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(graph.to_dot())


# Each command returns its verdict for _run to emit: whether the property
# holds (None when it checks none), the --json payload and the human text.
# The library hands over records and dicts; only _emit writes JSON.


def cmd_check(args):
    from . import typecheck
    session, context = _load_session(args, need_types=True)
    errors = typecheck.check_session(session, context, args.max_states, args.max_depth)
    payload = {"ok": not errors, "errors": [syntax._fields(e) for e in errors]}
    lines = "".join(f"\n  {e.kind} at {e.location}: {e.message}" for e in errors)
    return not errors, payload, f"ill-typed:{lines}" if errors else "well-typed"


def cmd_safety(args):
    from . import ltypes
    _, context = _load_session(args, need_types=True)
    ok, witness = ltypes.is_safe(context, args.max_states, args.max_depth)
    return ok, {"safe": ok, "witness": witness}, "safe" if ok else f"not safe: {witness}"


def cmd_df(args):
    from . import ltypes
    _, context = _load_session(args, need_types=True)
    ok, witness = ltypes.is_deadlock_free(context, args.max_states, args.max_depth)
    return ok, {"deadlock_free": ok, "witness": witness}, "deadlock-free" if ok else f"not deadlock-free: {witness}"


def cmd_simulate(args):
    from . import semantics
    if args.max_steps < 0:
        raise ValueError("--max-steps must not be negative")
    session, _ = _load_session(args)
    trace = []
    current = session
    for _ in range(args.max_steps + 1):
        # one listing gives the first step and the processes it leads to
        resolved = semantics.resolve(current)
        transitions = semantics._transitions(resolved)
        if not transitions or len(trace) == args.max_steps:
            break
        _, step, procs, _ = transitions[0]
        trace.append(step.describe())
        if args.trace:
            _write(f"-> {step.describe()}\n")
            _write(syntax.render_session(resolved))
        current = resolved.with_parts(procs)
    # stuck, not terminated: no step is enabled, yet some participant is
    # neither inaction nor success
    stuck = not transitions and any(not isinstance(p, (syntax.Nil, syntax.Success)) for _, p in resolved.parts)
    if args.dot:
        _write_dot(args, semantics.explore(session, max_states=args.max_states, max_depth=args.max_depth))
    payload = {
        "trace": trace,
        "stuck": stuck,
        "final": {n: syntax.render_process(p) for n, p in current.parts},
        "success": semantics.has_success(current),
    }
    return None, payload, f"{len(trace)} step(s); final:\n{syntax.render_session(current)}"


def cmd_encode(args):
    from . import encode
    session, context = _load_session(args)
    order = encode.build_order(session)
    target = encode.encode(session, args.via, order=order)
    target_context = None
    if context is not None:
        try:
            target_context = encode.encode_types(context, args.via, order=order)
        except syntax.McmpError:
            target_context = None
    size = syntax.render_length(target, target_context)
    if size > encode.MAX_ENCODE_TEXT:
        raise lts.TruncatedError(f"the target's text has {size} characters, past encode's output bound of {encode.MAX_ENCODE_TEXT >> 20} MiB")
    text = syntax.render_session(target, target_context)
    shown = {p: sorted(f"{a}<{b}" for a, b in pairs) for p, pairs in order.items()}
    payload = {"target": text, "via": args.via, "order": shown, "reserved_labels": list(syntax.RESERVED_LABELS)}
    return None, payload, text + "# order: " + json.dumps(shown, sort_keys=True)


def cmd_verify(args):
    if args.via == "lcmv-mcbs":
        from . import lcmv
        program = lcmv.parse_cmv(_read(args.file))
        report = lcmv.verify_correspondence(program, max_states=args.max_states, max_depth=args.max_depth)
    else:
        from . import encode
        session, _ = _load_session(args)
        report = encode.verify_correspondence(session, args.via, max_states=args.max_states, max_depth=args.max_depth)
    payload = {**syntax._fields(report), "passed": report.passed()}
    return report.passed(), payload, payload


def cmd_detect(args):
    from . import patterns, semantics
    cmv = args.file.endswith(".cmv")
    if cmv and args.dot:
        raise syntax.McmpError("--dot is not available for a .cmv program: detect draws only a session's state graph")
    if cmv:
        from . import lcmv
        term = lcmv.parse_cmv(_read(args.file))
    else:
        term, _ = _load_session(args)
    witness = patterns.detect_m(term) if args.pattern == "m" else patterns.detect_star(term)
    if not cmv:
        _write_dot(args, semantics.explore(term, max_states=args.max_states, max_depth=args.max_depth))
    if witness is None:
        return False, {"found": False}, f"no {args.pattern} pattern"
    fields = syntax._fields(witness)
    return True, {"found": True, "witness": fields}, fields


def cmd_classify(args):
    session, _ = _load_session(args)
    members = sorted(syntax.classify(session))
    return None, {"subcalculi": members}, " ".join(members)


def cmd_electoral(args):
    from . import patterns, semantics
    session, _ = _load_session(args)
    graph = semantics.explore(session, max_states=args.max_states, max_depth=args.max_depth)
    ok, witness = patterns.is_electoral_graph(graph, args.station, args.label)
    _write_dot(args, graph)
    return ok, {"electoral": ok, "witness": witness}, "electoral" if ok else f"not electoral: {witness}"


def cmd_cmv_check(args):
    from . import lcmv
    program = lcmv.parse_cmv(_read(args.file))
    try:
        classes = lcmv.check_cmv(program)
    except lcmv.CmvTypeError as e:
        return False, {"ok": False, "error": str(e)}, f"untypable: {e}"
    return True, {"ok": True, "choices": classes}, "linear and classifiable: " + json.dumps(classes, sort_keys=True)


def cmd_cmv_encode(args):
    from . import lcmv
    text = syntax.render_session(lcmv.encode_lcmv_to_mcbs(lcmv.parse_cmv(_read(args.file))))
    return None, {"target": text, "via": "lcmv-mcbs"}, text


if __name__ == "__main__":
    sys.exit(main())
