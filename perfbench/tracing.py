"""Spans and counters recorded around the public functions of each phl module.

Wrappers are installed from the benchmark's side: every binding of a wrapped
function in any loaded ``phl`` module namespace (``birkhoff.find_iso``,
``prover.enumerate_models``, ...) is replaced for the duration of a traced
round and restored afterwards.  The layer of a span is the module that
defines the function.  Spans stay in memory; self time is derived from their
nesting once the round is over.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter

WRAPPED = {
    "syntax": ("parse_theory", "parse_sequent", "parse_formula_in_context",
               "well_formed"),
    "semantics": ("holds", "is_model", "interp_formula", "iter_homs", "product",
                  "enumerate_structures", "enumerate_models", "parse_model",
                  "parse_hom"),
    "freemodel": ("saturate", "saturation_pass", "representing_model",
                  "repn_morphism"),
    "prover": ("prove",),
    "morphology": ("closed_submodel_generated", "orthogonal", "factorize",
                   "is_dense", "is_closed_mono"),
    "birkhoff": ("definability_check", "find_iso", "iso_collapse", "close_P",
                 "close_Scl", "close_R"),
    "translation": ("parse_sketch", "sketch_to_pht", "enumerate_sketch_models"),
}
LAYERS = tuple(WRAPPED)
NAMES = tuple(f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns)
_INDEX = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Spans of one traced round: ``[fn, start, end, parent, item, outermost]``
    where ``outermost`` is false for a call nested in a call of the same
    function.  ``item`` is the workload item being run (-1 in set-up)."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls = [0] * len(NAMES)
        self.yields = [0] * len(NAMES)
        self.counts: dict[str, int] = {}
        self.children: list[dict] = []   # summaries of traced subprocesses
        self.item = -1
        self._stack: list[int] = []
        self._depth = [0] * len(NAMES)
        self._serials: dict[int, tuple[object, int]] = {}
        self._closed: set[tuple] = set()

    def enter(self, fn: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([fn, perf_counter(), 0.0, parent, self.item,
                           self._depth[fn] == 0])
        self._depth[fn] += 1
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        self._depth[span[0]] -= 1
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def serial(self, obj) -> int:
        """A number per distinct object, in order of first sight; the object
        is kept alive so that its id is not reused within the round."""
        entry = self._serials.get(id(obj))
        if entry is None:
            entry = self._serials[id(obj)] = (obj, len(self._serials))
        return entry[1]

    def summary(self) -> dict:
        """Sums over the round: per function calls, yields, inclusive time of
        outermost calls and self time; plus the result counters."""
        child = [0.0] * len(self.spans)
        for fn, start, end, parent, _item, _outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl = [0.0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        search_s = 0.0
        prove, models = _INDEX["prover.prove"], _INDEX["semantics.enumerate_models"]
        for i, (fn, start, end, parent, _item, outer) in enumerate(self.spans):
            self_s[fn] += end - start - child[i]
            if outer:
                incl[fn] += end - start
            if fn == models and outer and self._has_ancestor(parent, prove):
                search_s += end - start
        counts = dict(self.counts)
        counts["morphology.closed_submodel_distinct"] = len(self._closed)
        return {"fn": {name: [self.calls[i], self.yields[i], incl[i], self_s[i]]
                       for i, name in enumerate(NAMES)},
                "counts": counts, "countermodel_search_s": search_s}

    def _has_ancestor(self, idx: int, fn: int) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == fn:
                return True
            idx = self.spans[idx][3]
        return False

    def dump(self) -> dict:
        return {"names": list(NAMES), "fields": ["fn", "start", "end", "parent",
                                                 "item", "outermost"],
                "spans": self.spans}


# ---------------------------------------------------------------------------
# result hooks: counters taken from what a wrapped function returns

def _on_prove(tracer: Tracer, args, result) -> None:
    tracer.count("prover." + result.verdict.lower())


def _on_saturate(tracer: Tracer, args, result) -> None:
    g, saturated = result[0], result[1]
    tracer.count("freemodel.saturated", int(bool(saturated)))
    tracer.count("freemodel.graph_nodes", len(g.parent))
    tracer.count("freemodel.graph_facts", len(g.facts))
    tracer.count("freemodel.trace_events", len(g.trace))


def _on_find_iso(tracer: Tracer, args, result) -> None:
    tracer.count("birkhoff.find_iso_hits", int(result is not None))


def _on_closed_submodel(tracer: Tracer, args, result) -> None:
    sub = result[0]
    tracer._closed.add((tracer.serial(args[0]),
                        tuple(sub.carrier(s) for s in sub.signature.sorts)))


HOOKS = {
    "prover.prove": _on_prove,
    "freemodel.saturate": _on_saturate,
    "birkhoff.find_iso": _on_find_iso,
    "morphology.closed_submodel_generated": _on_closed_submodel,
}


def _wrap(tracer: Tracer, name: str, f):
    fn = _INDEX[name]
    hook = HOOKS.get(name)
    if inspect.isgeneratorfunction(f):
        @functools.wraps(f)
        def gen_wrapper(*args, **kwargs):
            tracer.calls[fn] += 1
            it = f(*args, **kwargs)
            try:
                while True:
                    idx = tracer.enter(fn)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(idx)
                    tracer.yields[fn] += 1
                    yield value
            finally:
                it.close()
        return gen_wrapper

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        tracer.calls[fn] += 1
        idx = tracer.enter(fn)
        try:
            result = f(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if hook is not None:
            hook(tracer, args, result)
        return result
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every binding of a wrapped function through the tracer."""
    wrappers = {}
    for layer, fns in WRAPPED.items():
        module = importlib.import_module(f"phl.{layer}")
        for fn in fns:
            f = getattr(module, fn)
            wrappers[id(f)] = (f, _wrap(tracer, f"{layer}.{fn}", f))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "phl" and not modname.startswith("phl."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics

def merge(summaries) -> dict:
    """Add up summaries, e.g. of the processes of one cli round."""
    out = {"fn": {name: [0, 0, 0.0, 0.0] for name in NAMES}, "counts": {},
           "countermodel_search_s": 0.0}
    for s in summaries:
        for name, row in s["fn"].items():
            out["fn"][name] = [a + b for a, b in zip(out["fn"][name], row)]
        for key, n in s["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + n
        out["countermodel_search_s"] += s["countermodel_search_s"]
    return out


def layer_metrics(summary: dict) -> dict[str, float]:
    fn, counts = summary["fn"], summary["counts"]

    def calls(name):
        return fn[name][0]

    def incl(name):
        return fn[name][2]

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        rows = [row for name, row in fn.items() if name.startswith(layer + ".")]
        m[f"{layer}.self_s"] = sum(row[3] for row in rows)
        m[f"{layer}.calls"] = sum(row[0] for row in rows)
    m["semantics.enumerate_structures_s"] = incl("semantics.enumerate_structures")
    m["semantics.structures_yielded"] = fn["semantics.enumerate_structures"][1]
    m["semantics.structures_per_s"] = ratio(m["semantics.structures_yielded"],
                                            m["semantics.enumerate_structures_s"])
    for short in ("holds", "is_model", "iter_homs", "product"):
        m[f"semantics.{short}_s"] = incl(f"semantics.{short}")
        m[f"semantics.{short}_calls"] = calls(f"semantics.{short}")
    m["semantics.homs_yielded"] = fn["semantics.iter_homs"][1]
    m["freemodel.saturate_s"] = incl("freemodel.saturate")
    m["freemodel.saturate_calls"] = calls("freemodel.saturate")
    m["freemodel.saturated_share"] = ratio(counts.get("freemodel.saturated", 0),
                                           calls("freemodel.saturate"))
    for key in ("graph_nodes", "graph_facts", "trace_events"):
        m[f"freemodel.{key}"] = counts.get(f"freemodel.{key}", 0)
    m["freemodel.representing_model_s"] = incl("freemodel.representing_model")
    for verdict in ("proved", "refuted", "unknown"):
        m[f"prover.{verdict}"] = counts.get(f"prover.{verdict}", 0)
    m["prover.countermodel_search_s"] = summary["countermodel_search_s"]
    m["morphology.closed_submodel_calls"] = calls("morphology.closed_submodel_generated")
    m["morphology.closed_submodel_distinct_ratio"] = ratio(
        counts.get("morphology.closed_submodel_distinct", 0),
        m["morphology.closed_submodel_calls"])
    m["morphology.orthogonal_s"] = incl("morphology.orthogonal")
    m["birkhoff.find_iso_s"] = incl("birkhoff.find_iso")
    m["birkhoff.find_iso_calls"] = calls("birkhoff.find_iso")
    m["birkhoff.find_iso_hit_ratio"] = ratio(counts.get("birkhoff.find_iso_hits", 0),
                                             calls("birkhoff.find_iso"))
    m["birkhoff.iso_collapse_s"] = incl("birkhoff.iso_collapse")
    return m
