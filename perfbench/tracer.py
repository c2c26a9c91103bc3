"""Boundary tracer: spans around the public functions of `spongedim`, from outside.

``Tracer.install`` replaces every public function of every loaded
``spongedim`` module, in its defining module and in each module that
imported it by name, with a wrapper that opens a span.  ``uninstall`` puts
every original attribute back.  Nothing inside the package is edited.

Spans are kept in memory as a call tree: a node is one (parent, span name,
calling module) and carries the number of calls and their total time, so a
function called a million times under the same parent costs one node.  Each
job is a root under the run node.  A generator function is timed one step
at a time: each ``next`` is one call.

A few results are also counted where they cross the boundary (see
``_HOOKS``); these are the counters the per-layer metrics read.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import types
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

PACKAGE = "spongedim"


@dataclass
class Node:
    id: int
    parent: int | None
    name: str
    caller: str
    calls: int = 0
    total_s: float = 0.0
    children: list[int] = field(default_factory=list)


def _count_log_only(t: "Tracer", result, caller: str) -> None:
    if result.exact is None:
        t.counters["measure.cube_measure.log_only"] += 1


def _count_cubes(t: "Tracer", result, caller: str) -> None:
    if caller == "verify":
        from spongedim.cubes import DEFAULT_CAP

        t.counters["verify.doubling.cubes"] += result
        t.min_cap_headroom = min(t.min_cap_headroom, DEFAULT_CAP / result)


def _count_pairs(t: "Tracer", result, caller: str) -> None:
    t.counters["verify.doubling.pairs"] += sum(r.pair_count for r in result.per_depth)


def _count_boxes(counter: str):
    def hook(t: "Tracer", result, caller: str) -> None:
        t.counters[counter] += len(result)
    return hook


def _count_bytes(t: "Tracer", result, caller: str) -> None:
    t.counters["cubes.export.bytes"] += len(result.encode("utf-8"))


_HOOKS = {
    "measure.cube_measure": _count_log_only,
    "cubes.count_cubes": _count_cubes,
    "verify.doubling_report": _count_pairs,
    "verify.tangent_image": _count_boxes("verify.tangent_image.boxes"),
    "cubes.prefractal": _count_boxes("cubes.prefractal.boxes"),
    "cubes.boxes_to_csv": _count_bytes,
    "cubes.boxes_to_svg": _count_bytes,
}


def package_modules() -> list[types.ModuleType]:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def short_name(module_name: str) -> str:
    return module_name.removeprefix(PACKAGE + ".")


def is_wrapper(obj: object) -> bool:
    return hasattr(obj, "__perfbench_span__")


class Tracer:
    def __init__(self) -> None:
        self.nodes = [Node(0, None, "run", "")]
        self._index: dict[tuple[int, str, str], int] = {}
        self._stack = [0]
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.counters: Counter[str] = Counter()
        self.min_cap_headroom = math.inf

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str, caller: str) -> int:
        key = (self._stack[-1], name, caller)
        nid = self._index.get(key)
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(Node(nid, key[0], name, caller))
            self.nodes[key[0]].children.append(nid)
            self._index[key] = nid
        self._stack.append(nid)
        return nid

    def _exit(self, nid: int, seconds: float) -> None:
        self._stack.pop()
        node = self.nodes[nid]
        node.calls += 1
        node.total_s += seconds

    def job(self, key: str, call, *args):
        """Run ``call(*args)`` as the root span of one job."""
        nid = self._enter("job", key)
        t0 = perf_counter()
        try:
            return call(*args)
        finally:
            self._exit(nid, perf_counter() - t0)

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name: str, caller: str):
        hook = _HOOKS.get(name)
        enter, exit_ = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def stepper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    nid = enter(name, caller)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(nid, perf_counter() - t0)
                    yield item

            stepper.__perfbench_span__ = name
            return stepper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = enter(name, caller)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(nid, perf_counter() - t0)
            if hook is not None:
                hook(self, result, caller)
            return result

        wrapper.__perfbench_span__ = name
        return wrapper

    def install(self) -> None:
        for mod in package_modules():
            caller = short_name(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith(PACKAGE)
                ):
                    continue
                name = f"{short_name(obj.__module__)}.{obj.__qualname__}"
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, name, caller))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    # -- reading the tree --------------------------------------------------

    def _child_s(self, node: Node) -> float:
        return sum(self.nodes[c].total_s for c in node.children)

    def group(self, match) -> tuple[int, float, float]:
        """(calls, inclusive s, self s) over spans whose name ``match`` accepts.

        Inclusive time counts only spans with no ancestor in the group, so a
        group member called from another member is not counted twice.
        """
        calls, inclusive, self_s = 0, 0.0, 0.0
        todo = [(0, False)]
        while todo:
            nid, inside = todo.pop()
            node = self.nodes[nid]
            hit = nid != 0 and match(node.name)
            if hit:
                calls += node.calls
                self_s += node.total_s - self._child_s(node)
                if not inside:
                    inclusive += node.total_s
            todo.extend((c, inside or hit) for c in node.children)
        return calls, inclusive, self_s

    def write(self, path: Path) -> None:
        doc = {
            "nodes": [
                {"id": n.id, "parent": n.parent, "name": n.name, "caller": n.caller,
                 "calls": n.calls, "total_s": n.total_s}
                for n in self.nodes
            ],
            "counters": dict(self.counters),
            "min_cap_headroom": (
                None if math.isinf(self.min_cap_headroom) else self.min_cap_headroom
            ),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def names(*full: str):
    wanted = frozenset(full)
    return lambda name: name in wanted


def layer_metrics(t: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass of the job list, as {name: (value, unit)}."""
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value / passes if unit != "ratio" else value, unit)

    def calls_and_s(metric: str, match) -> None:
        calls, inclusive, _ = t.group(match)
        put(f"{metric}.calls", calls, "count")
        put(f"{metric}.s", inclusive, "s")

    def self_s(metric: str, match) -> None:
        put(f"{metric}.self_s", t.group(match)[2], "s")

    calls_and_s("measure.cube_measure", names("measure.cube_measure"))
    put("measure.cube_measure.log_only",
        t.counters["measure.cube_measure.log_only"], "count")
    calls_and_s("cubes.scale_exponents", names("cubes.scale_exponents"))
    calls_and_s("measure.ball_measure_bounds", names("measure.ball_measure_bounds"))
    self_s("verify.scan", names("verify.scan_cube_ratios", "verify.scan_ball_ratios_vssc"))
    calls_and_s("measure.build", names(
        "measure.coordinate_uniform", "measure.load_measure",
        "measure.positive_weight_grid"))
    self_s("verify.doubling", names("verify.doubling_report"))
    put("verify.doubling.cubes", t.counters["verify.doubling.cubes"], "count")
    put("verify.doubling.pairs", t.counters["verify.doubling.pairs"], "count")
    put("cubes.count_cubes.s", t.group(names("cubes.count_cubes"))[1], "s")
    put("cubes.count_cubes.cap_headroom",
        0.0 if math.isinf(t.min_cap_headroom) else t.min_cap_headroom, "ratio")
    self_s("verify.tangent_check", names("verify.check_tangent_convergence"))
    put("verify.tangent_image.s", t.group(names("verify.tangent_image"))[1], "s")
    put("verify.tangent_image.boxes", t.counters["verify.tangent_image.boxes"], "count")
    put("cubes.prefractal.s", t.group(names("cubes.prefractal"))[1], "s")
    put("cubes.prefractal.boxes", t.counters["cubes.prefractal.boxes"], "count")
    put("cubes.export.s",
        t.group(names("cubes.boxes_to_csv", "cubes.boxes_to_svg"))[1], "s")
    put("cubes.export.bytes", t.counters["cubes.export.bytes"], "bytes")
    put("verify.serialize.s", t.group(
        lambda n: n.startswith("verify.") and
        (n.endswith("_to_json") or n == "verify.scan_samples_csv"))[1], "s")
    calls_and_s("model.load_sponge", names("model.load_sponge"))
    calls_and_s("dims", lambda n: n.startswith("dims."))
    self_s("cli", lambda n: n.startswith("cli."))
    return out
