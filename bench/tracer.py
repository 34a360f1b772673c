"""Per-layer spans for the traced benchmark run, recorded from outside the
library.

``Tracer.install`` wraps every public function defined in each ``mcmp``
layer module and then rebinds every copy of it that ``from .x import f``
left in another ``mcmp`` module's namespace, so that, for example,
``semantics`` calling ``canon_session`` or ``patterns`` calling ``explore``
goes through the wrapper.  A call of a function that is already on the span
stack (recursion) runs unwrapped inside the outer span.

Spans (name, start, end, parent, operation id) are kept in flat arrays in
memory and written by ``dump`` when the run ends; ``aggregate`` turns them
into calls, self time (duration minus the time covered by child spans) and
the counts the benchmark reports.

As a command, it runs one traced CLI operation:

    PYTHONPATH=src python3 bench/tracer.py --op 3 --out .bench_out/x -- check f.mcmp --json

which writes ``<out>.spans`` (the spans) and ``<out>.json`` (their
aggregate), and exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("syntax", "semantics", "ltypes", "typecheck", "encode", "lcmv", "patterns", "cli")

# functions whose result carries sizes worth counting: (names, probe)
PROBES = {
    "semantics.explore_many": (("states", "edges"), lambda g: (len(g.states), len(g.edges))),
    "ltypes.explore_contexts": (("contexts", "edges"), lambda g: (len(g.contexts), len(g.edges))),
    "lcmv.explore_cmv": (("states", "edges"), lambda g: (len(g.states), len(g.edges))),
    "semantics.weak_bisim_classes": (("states",), lambda classes: (len(classes), 0)),
}
FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "size1", "size2")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.size1 = array("q")
        self.size2 = array("q")
        self.errors: list[int] = []  # spans an exception left
        self.stack: list[int] = []
        self.op_id = 0

    def install(self) -> None:
        modules = [importlib.import_module(f"mcmp.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in [m for n, m in sys.modules.items() if n == "mcmp" or n.startswith("mcmp.")]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name, (None, None))[1]
        names, start, end, parent, op = self.name, self.start, self.end, self.parent, self.op
        size1, size2, stack, errors = self.size1, self.size2, self.stack, self.errors
        clock = time.perf_counter_ns
        active = [False]
        tracer = self

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0)
            size1.append(0)
            size2.append(0)
            stack.append(idx)
            active[0] = True
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                active[0] = False
                stack.pop()
                errors.append(idx)
                raise
            end[idx] = clock()
            active[0] = False
            stack.pop()
            if probe is not None:
                size1[idx], size2[idx] = probe(result)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line (function names, span count,
        fields and their ``array`` typecodes, spans an exception left), then
        each field as a native-endian integer array in FIELDS order, which
        ``array.fromfile`` reads back."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self.start), "fields": list(FIELDS),
                  "typecodes": [a.typecode for a in self._arrays()], "errors": self.errors}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for a in self._arrays():
                a.tofile(handle)

    def _arrays(self):
        return (self.name, self.start, self.end, self.parent, self.op, self.size1, self.size2)

    def aggregate(self) -> dict:
        """Per function: calls, inclusive and self seconds, and for probed
        functions the summed sizes and the first span's first size; per
        module: exceptions that left the module; plus the counts behind the
        derived ratios the benchmark reports."""
        n = len(self.start)
        names, parent = self.name, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        funcs: dict[str, dict] = {}
        for i in range(n):
            name = self.names[names[i]]
            f = funcs.get(name)
            if f is None:
                f = funcs[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                if name in PROBES:
                    f["first"] = self.size1[i]
                    f.update(dict.fromkeys(PROBES[name][0], 0))
            f["calls"] += 1
            f["total_s"] += dur[i] / 1e9
            f["self_s"] += (dur[i] - child[i]) / 1e9
            if name in PROBES:
                for key, size in zip(PROBES[name][0], (self.size1[i], self.size2[i])):
                    f[key] += size

        def nid(name: str) -> int:
            return self.names.index(name) if name in self.names else -1

        def inside(name: str) -> list[bool]:
            """Which spans have an ancestor called name (parents come first)."""
            target, mark = nid(name), [False] * n
            for i in range(n):
                p = parent[i]
                mark[i] = p >= 0 and (mark[p] or names[p] == target)
            return mark

        in_explore, in_verify = inside("semantics.explore_many"), inside("encode.verify_correspondence")
        canon, bisim = nid("syntax.canon_session"), nid("semantics.weak_bisim_classes")
        canon_in_explore = sum(1 for i in range(n) if names[i] == canon and in_explore[i])
        joint_states = sum(self.size1[i] for i in range(n) if names[i] == bisim and in_verify[i])
        errors = {layer: 0 for layer in LAYERS}
        for i in self.errors:
            layer = self.names[names[i]].split(".")[0]
            p = parent[i]
            if p < 0 or self.names[names[p]].split(".")[0] != layer:
                errors[layer] += 1
        return {
            "spans": n,
            "functions": funcs,
            "canon_in_explore": canon_in_explore,
            "joint_states": joint_states,
            "errors": errors,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description="run one traced mcmp command")
    parser.add_argument("--op", type=int, required=True, help="operation id stored with every span")
    parser.add_argument("--out", type=Path, required=True, help="path prefix for the .spans and .json files")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the mcmp arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    tracer.install()
    tracer.op_id = args.op
    from mcmp import cli

    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse exits on usage errors
        code = e.code
    sys.stdout.flush()
    t0 = time.perf_counter()
    tracer.dump(args.out.with_suffix(".spans"))
    report = tracer.aggregate()
    report["dump_s"] = time.perf_counter() - t0
    args.out.with_suffix(".json").write_text(json.dumps(report))
    return code if isinstance(code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
