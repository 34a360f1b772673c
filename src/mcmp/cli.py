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
    try:
        return args.run(args)
    except (syntax.ParseError, FileNotFoundError) as e:
        _emit(args, {"error": str(e)}, str(e))
        return USAGE
    except lts.TruncatedError as e:
        _emit(args, {"error": str(e), "truncated": True}, f"truncated: {e}")
        return TRUNCATED
    except RecursionError:
        # the type checker, subtyping, form comparison and the .cmv translation
        # recurse once per prefix
        message = "nesting depth: the input nests deeper than the recursion limit allows"
        _emit(args, {"error": message, "truncated": True}, f"truncated: {message}")
        return TRUNCATED
    except (syntax.McmpError, ValueError) as e:
        _emit(args, {"error": str(e)}, f"error: {e}")
        return USAGE


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcmp", description=__doc__, parents=[_global_flags(False)])
    shared = _global_flags(True)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check", parents=[shared], help="type-check a session against its declared context")
    p.add_argument("file")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("safety", parents=[shared], help="check the declared context is safe")
    p.add_argument("file")
    p.set_defaults(run=cmd_safety)

    p = sub.add_parser("df", parents=[shared], help="check the declared context is deadlock-free")
    p.add_argument("file")
    p.set_defaults(run=cmd_df)

    p = sub.add_parser("simulate", parents=[shared], help="run reductions, first enabled step each time")
    p.add_argument("file")
    p.add_argument("--max-steps", type=int, default=64)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("encode", parents=[shared], help="translate a session by one of the encodings")
    p.add_argument("file")
    p.add_argument("--via", required=True, type=_encoding, metavar="ID")
    p.set_defaults(run=cmd_encode)

    p = sub.add_parser("verify-encoding", parents=[shared], help="run the good-encoding harness")
    p.add_argument("file")
    p.add_argument("--via", required=True, type=_encoding, metavar="ID")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("detect", parents=[shared], help="search for a synchronisation pattern")
    p.add_argument("file")
    p.add_argument("--pattern", required=True, choices=["m", "star"])
    p.set_defaults(run=cmd_detect)

    p = sub.add_parser("classify", parents=[shared], help="list the subcalculi a session belongs to")
    p.add_argument("file")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("electoral", parents=[shared], help="check every maximal execution elects one leader")
    p.add_argument("file")
    p.add_argument("--station", required=True)
    p.add_argument("--label", required=True)
    p.set_defaults(run=cmd_electoral)

    p = sub.add_parser("cmv", help="linear mixed-sessions front end")
    cmv_sub = p.add_subparsers(dest="cmv_command")
    q = cmv_sub.add_parser("check", parents=[shared], help="classify choices as internal/external")
    q.add_argument("file")
    q.set_defaults(run=cmd_cmv_check)
    q = cmv_sub.add_parser("encode", parents=[shared], help="translate into mixed-choice binary sessions")
    q.add_argument("file")
    q.set_defaults(run=cmd_cmv_encode)

    return parser


def _encoding(name: str) -> str:
    from .encode import ENCODINGS  # checked here, so that no other command loads the encodings
    if name not in ENCODINGS:
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {', '.join(map(repr, sorted(ENCODINGS)))})")
    return name


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        _write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _write(human + "\n")


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


def cmd_check(args) -> int:
    from . import typecheck
    session, context = _load_session(args, need_types=True)
    errors = typecheck.check_session(session, context, args.max_states, args.max_depth)
    payload = {"ok": not errors, "errors": [e.to_json() for e in errors]}
    if errors:
        lines = "\n".join(f"  {e.kind} at {e.location}: {e.message}" for e in errors)
        _emit(args, payload, f"ill-typed:\n{lines}")
        return FAIL
    _emit(args, payload, "well-typed")
    return OK


def cmd_safety(args) -> int:
    from . import ltypes
    _, context = _load_session(args, need_types=True)
    ok, witness = ltypes.is_safe(context, args.max_states, args.max_depth)
    _emit(args, {"safe": ok, "witness": witness}, "safe" if ok else f"not safe: {witness}")
    return OK if ok else FAIL


def cmd_df(args) -> int:
    from . import ltypes
    _, context = _load_session(args, need_types=True)
    ok, witness = ltypes.is_deadlock_free(context, args.max_states, args.max_depth)
    _emit(args, {"deadlock_free": ok, "witness": witness}, "deadlock-free" if ok else f"not deadlock-free: {witness}")
    return OK if ok else FAIL


def cmd_simulate(args) -> int:
    from . import semantics
    if args.max_steps < 0:
        raise ValueError("--max-steps must not be negative")
    session, _ = _load_session(args)
    trace = []
    current = session
    for _ in range(args.max_steps):
        # resolved once, so that apply_step meets the terms, and their kept
        # forms, that listed the step
        resolved = semantics.resolve(current)
        steps = semantics.enabled_steps(resolved)
        if not steps:
            break
        step = steps[0]
        trace.append(step.describe())
        if args.trace:
            _write(f"-> {step.describe()}\n")
            _write(syntax.render_session(resolved))
        current = semantics.apply_step(resolved, step)
    # stuck, not terminated: no step is enabled, yet some participant is
    # neither inaction nor success
    stuck = not semantics.enabled_steps(current) and any(
        not isinstance(p, (syntax.Nil, syntax.Success)) for _, p in semantics.resolve(current).parts
    )
    if args.dot:
        graph = semantics.explore(session, max_states=args.max_states, max_depth=args.max_depth)
        _write_dot(args, graph)
    payload = {
        "trace": trace,
        "stuck": stuck,
        "final": {n: syntax.render_process(p) for n, p in current.parts},
        "success": semantics.has_success(current),
    }
    _emit(args, payload, f"{len(trace)} step(s); final:\n{syntax.render_session(current)}")
    return OK


def cmd_encode(args) -> int:
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
    payload = {
        "target": text,
        "via": args.via,
        "order": {p: sorted(f"{a}<{b}" for a, b in pairs) for p, pairs in order.items()},
        "reserved_labels": list(syntax.RESERVED_LABELS),
    }
    _emit(args, payload, text + "# order: " + json.dumps(payload["order"], sort_keys=True))
    return OK


def cmd_verify(args) -> int:
    if args.via == "lcmv-mcbs":
        from . import lcmv
        program = lcmv.parse_cmv(_read(args.file))
        report = lcmv.verify_correspondence(program, max_states=args.max_states, max_depth=args.max_depth)
    else:
        from . import encode
        session, _ = _load_session(args)
        report = encode.verify_correspondence(
            session, args.via, max_states=args.max_states, max_depth=args.max_depth
        )
    _emit(args, json.loads(report.to_json()), report.to_json())
    return OK if report.passed() else FAIL


def cmd_detect(args) -> int:
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
        _emit(args, {"found": False}, f"no {args.pattern} pattern")
        return FAIL
    _emit(args, {"found": True, "witness": json.loads(witness.to_json())}, witness.to_json())
    return OK


def cmd_classify(args) -> int:
    session, _ = _load_session(args)
    members = sorted(syntax.classify(session))
    _emit(args, {"subcalculi": members}, " ".join(members))
    return OK


def cmd_electoral(args) -> int:
    from . import patterns, semantics
    session, _ = _load_session(args)
    ok, witness = patterns.is_electoral(
        session, args.station, args.label, max_states=args.max_states, max_depth=args.max_depth
    )
    if args.dot:
        _write_dot(args, semantics.explore(session, max_states=args.max_states, max_depth=args.max_depth))
    _emit(args, {"electoral": ok, "witness": witness}, "electoral" if ok else f"not electoral: {witness}")
    return OK if ok else FAIL


def cmd_cmv_check(args) -> int:
    from . import lcmv
    program = lcmv.parse_cmv(_read(args.file))
    try:
        classes = lcmv.check_cmv(program)
    except lcmv.CmvTypeError as e:
        _emit(args, {"ok": False, "error": str(e)}, f"untypable: {e}")
        return FAIL
    payload = {"ok": True, "choices": classes}
    _emit(args, payload, "linear and classifiable: " + json.dumps(payload["choices"], sort_keys=True))
    return OK


def cmd_cmv_encode(args) -> int:
    from . import lcmv
    target = lcmv.encode_lcmv_to_mcbs(lcmv.parse_cmv(_read(args.file)))
    text = syntax.render_session(target)
    _emit(args, {"target": text, "via": "lcmv-mcbs"}, text)
    return OK


if __name__ == "__main__":
    sys.exit(main())
