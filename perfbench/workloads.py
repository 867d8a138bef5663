"""The benchmark's workloads.

Each workload sets up its inputs from the seed, runs a fixed list of items
and checks every output against a reference that does not come from the
code path being timed.  ``run`` returns one latency (seconds) and one
output per item; ``check`` returns one message per failed item; ``digest``
must be equal for every round of a run.

Before an item is timed, the heap is collected: which item a collection
of older garbage lands in otherwise depends on the item order, which the
seed shuffles, and one such pause moved the 90th percentile of
``prove-corpus`` by more than 40 % between seeds.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

# The program is called through its module attributes, so that the tracing
# wrappers installed on them see every call.
from phl import birkhoff, prover, semantics, syntax, translation
from phl.semantics import formula_holds_at, print_model, size_profiles
from phl.syntax import NamedAxiom, print_sequent
from phl.theories import CAT_SRC, MON_INV_SRC, MON_SRC, POS_SRC, PREORDER_SRC

import corpus

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "out"


def program_env() -> dict:
    """The environment of a fresh interpreter that imports phl from src/."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(ROOT / "src")
                + (os.pathsep + path if path else ""))


def fresh_interpreter_s() -> tuple[float, float]:
    """Wall time of ``python -c pass``, and the time ``import phl.cli``
    takes inside a fresh interpreter."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=program_env(),
                   check=True, timeout=60)
    start_s = perf_counter() - t0
    code = ("from time import perf_counter as c; t = c(); import phl.cli; "
            "print(c() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=program_env(),
                         check=True, timeout=60, capture_output=True, text=True)
    return start_s, float(out.stdout)


def clear_program_caches() -> None:
    """Drop the memo table behind ``enumerate_models``, so that no round
    reuses work of an earlier one."""
    semantics._models_cached.cache_clear()


def small_models(theory, max_size: int) -> list:
    return [m for sizes in size_profiles(theory.signature.sorts, max_size)
            for m in semantics.enumerate_structures(theory, sizes)]


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else p)
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# prove-corpus

@dataclass
class CorpusItem:
    index: int            # position in the corpus as drawn, before shuffling
    theory_name: str
    theory: object
    sequent: object
    small_valid: bool     # holds on every model with carriers of size <= 3


class ProveCorpus:
    """Random sequents sent to ``prove`` with the enumerator off.

    The corpus is the first ``PER_THEORY`` sequents per theory, over one to
    three variables, that ``corpus.random_sequent`` draws from
    ``CORPUS_SEED``; ``--seed`` shuffles the order.  Fresh corpora per seed
    are not used: the median item latency of a 100-sequent corpus moved by
    65 % (quartile spread) from one seed to the next, and even renaming the
    variables moved the 90th percentile by 24 %.
    """
    name = "prove-corpus"
    CORPUS_SEED = 20240328
    PER_THEORY = 50
    THEORIES = (("pos", POS_SRC), ("preord", PREORDER_SRC), ("mon", MON_SRC),
                ("cat", CAT_SRC))
    PROVE_ARGS = {"depth": 3, "model_size": 0, "max_work": 40_000}
    # corpus positions of the sequents that end Unknown at the seed baseline;
    # any other sequent ending Unknown is a failed item, so that no change
    # buys speed by giving up sooner
    UNKNOWN_AT_BASELINE = frozenset({
        104, 105, 108, 111, 112, 113, 114, 115, 116, 122, 127, 129, 131, 132,
        135, 140, 142, 144, 156, 185})

    def setup(self, seed: int):
        clear_program_caches()
        rng = random.Random(self.CORPUS_SEED)
        items = []
        for name, src in self.THEORIES:
            theory = syntax.parse_theory(src)
            models = small_models(theory, 3)
            for _ in range(self.PER_THEORY):
                seq = corpus.random_sequent(rng, theory, rng.randint(1, 3))
                ok = all(semantics.holds(m, seq).ok for m in models)
                items.append(CorpusItem(len(items), name, theory, seq, ok))
        random.Random(seed).shuffle(items)
        return items

    def run(self, items, tracer=None):
        latencies, outputs = [], []
        for i, it in enumerate(items):
            if tracer is not None:
                tracer.item = i
            gc.collect()
            t0 = perf_counter()
            try:
                out = prover.prove(it.theory, it.sequent, **self.PROVE_ARGS)
            except Exception as e:  # a crash is a failed item, not a dead run
                out = e
            latencies.append(perf_counter() - t0)
            outputs.append(out)
        return latencies, outputs

    @staticmethod
    def decided(outputs) -> int:
        return sum(getattr(out, "verdict", None) in ("Proved", "Refuted")
                   for out in outputs)

    def check(self, items, outputs) -> list[str]:
        bad = []
        for it, out in zip(items, outputs):
            seq = it.sequent
            where = f"sequent {it.index} ({it.theory_name}) {print_sequent(seq)}"
            verdict = getattr(out, "verdict", None)
            if verdict is None:
                bad.append(f"{where}: raised {out!r}")
            elif verdict == "Unknown" and it.index not in self.UNKNOWN_AT_BASELINE:
                bad.append(f"{where}: Unknown, but decided at the seed baseline")
            elif verdict == "Proved" and not it.small_valid:
                bad.append(f"{where}: Proved, but fails on a model of size <= 3")
            elif verdict == "Refuted":
                m, w = out.countermodel, out.witness
                if not semantics.is_model(m, it.theory).ok:
                    bad.append(f"{where}: countermodel is not a model")
                elif len(w) != len(seq.context.vars) or \
                        not formula_holds_at(m, seq.context, seq.premise, w) or \
                        formula_holds_at(m, seq.context, seq.conclusion, w):
                    bad.append(f"{where}: witness does not violate the sequent")
        return bad

    def digest(self, outputs) -> str:
        parts = []
        for out in outputs:
            parts.append(getattr(out, "verdict", repr(out)))
            if getattr(out, "verdict", None) == "Refuted":
                parts += [print_model(out.countermodel), repr(out.witness)]
        return _sha(parts)


# ---------------------------------------------------------------------------
# enumerate-models

PULLBACK_SKETCH = """\
sketch pbsk
objects: s0 s1 t w;
arrow iw : w -> w; arrow i0 : s0 -> s0; arrow i1 : s1 -> s1; arrow it : t -> t;
arrow r0 : s0 -> t;
arrow r1 : s1 -> t;
arrow q0 : w -> s0;
arrow q1 : w -> s1;
arrow m : w -> t;
identity w = iw; identity s0 = i0; identity s1 = i1; identity t = it;
compose i0 i0 = i0; compose i1 i1 = i1; compose it it = it; compose iw iw = iw;
compose r0 q0 = m; compose r1 q1 = m;
compose it r0 = r0; compose it r1 = r1; compose it m = m;
pullback-cone w [q0 q1] over [r0 r1];
"""
SKETCH_PROFILE = {"s0": 3, "s1": 2, "t": 2, "w": 3}


@dataclass
class EnumInput:
    label: str
    theory: object
    profiles: list
    expected: int | None      # None: compared with the sketch reference


class EnumerateModels:
    """``enumerate_structures`` over fixed carrier profiles; an item is one
    model yielded.  Called directly, never through the cached
    ``enumerate_models``."""
    name = "enumerate-models"
    EXPECTED = {
        "pos<=5": 4474,      # OEIS A001035: 1+1+3+19+219+4231
        "preord<=4": 390,    # OEIS A000798: 1+1+4+29+355
        "mon<=4": 662,       # recorded count
    }

    def setup(self, seed: int):
        inputs = []
        for label, src, n in (("pos<=5", POS_SRC, 5), ("preord<=4", PREORDER_SRC, 4),
                              ("mon<=4", MON_SRC, 4)):
            theory = syntax.parse_theory(src)
            inputs.append(EnumInput(label, theory,
                                    list(size_profiles(theory.signature.sorts, n)),
                                    self.EXPECTED[label]))
        sketch = translation.parse_sketch(PULLBACK_SKETCH)
        inputs.append(EnumInput("pullback-sketch", translation.sketch_to_pht(sketch),
                                [dict(SKETCH_PROFILE)], None))
        random.Random(seed).shuffle(inputs)
        return {"inputs": inputs, "sketch": sketch}

    def run(self, state, tracer=None):
        """An item's latency is the time to the next model, including the
        end of the search on profiles finished since the previous one."""
        latencies, outputs = [], []
        pending = 0.0
        for inp in state["inputs"]:
            models = []
            gc.collect()
            for sizes in inp.profiles:
                t0 = perf_counter()
                for m in semantics.enumerate_structures(inp.theory, sizes):
                    latencies.append(pending + perf_counter() - t0)
                    pending = 0.0
                    models.append(m)
                    if tracer is not None:
                        tracer.item = len(latencies)
                    t0 = perf_counter()
                pending += perf_counter() - t0
            outputs.append((inp, models))
        latencies[-1] += pending
        return latencies, outputs

    @staticmethod
    def decided(outputs) -> int:
        return sum(len(models) for _, models in outputs)

    def check(self, state, outputs) -> list[str]:
        return [f"{inp.label}: {len(models)} models, expected {inp.expected}"
                for inp, models in outputs
                if inp.expected is not None and len(models) != inp.expected]

    def final_check(self, state, outputs) -> list[str]:
        """Run once, on one round; the digest ties the other rounds to it.
        The sketch's theory models must be as many as its models counted by
        ``enumerate_sketch_models``, and every structure must be a model."""
        bad = []
        for inp, models in outputs:
            if inp.expected is None:
                want = sum(1 for _ in translation.enumerate_sketch_models(
                    state["sketch"], SKETCH_PROFILE))
                if len(models) != want:
                    bad.append(f"{inp.label}: {len(models)} models, "
                               f"expected {want}")
            bad += [f"{inp.label}: {m.name} is not a model"
                    for m in models if not semantics.is_model(m, inp.theory).ok]
        return bad

    def digest(self, outputs) -> str:
        return _sha([inp.label for inp, _ in outputs] +
                    [print_model(m) for _, models in outputs for m in models])


# ---------------------------------------------------------------------------
# definability

@dataclass
class Experiment:
    label: str
    theory: object
    judgment: object
    pool: list
    depth: int
    size_cap: int
    class_size: int
    # products of two class members larger than the pool's largest carrier:
    # one per unordered pair of members with at least two elements
    outside_pool: int
    orthogonality_skipped: tuple   # presentations truncated at the depth


class Definability:
    """``definability_check`` for posets among preorders up to size 3 and
    groups among monoids with a partial inverse up to size 3.  The pools are
    enumerated afresh in every set-up, so no round reuses the invariants
    that ``birkhoff`` caches on structure objects.  (Groups up to size 4
    take one 8-second item, too long to time steadily on a shared host.)

    The check covers the whole report, so that a change cannot pass by
    doing less: the free model on one element of ``mon_inv`` is infinite,
    so the orthogonality test of ``inv_total`` is always skipped, and of
    nothing else."""
    name = "definability"

    def setup(self, seed: int):
        pre, mi = syntax.parse_theory(PREORDER_SRC), syntax.parse_theory(MON_INV_SRC)
        exps = [
            # class size: posets up to iso with <= 3 elements, OEIS A000112;
            # 28 unordered pairs of the 7 posets with 2 or 3 elements
            Experiment("posets", pre, NamedAxiom("antisym", syntax.parse_sequent(
                "[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y", pre.signature)),
                self._pool(pre, 3), 2, 30, 1 + 1 + 2 + 5, 28, ()),
            # class size: groups of order <= 3 (orders 1, 2 and 3);
            # 3 unordered pairs of the groups of order 2 and 3
            Experiment("groups", mi, NamedAxiom("inv_total", syntax.parse_sequent(
                "[x:*] true |- def(inv(x))", mi.signature)),
                self._pool(mi, 3), 3, 20, 3, 3,
                ("inv_total: presentation truncated at depth 3",)),
        ]
        random.Random(seed).shuffle(exps)
        return exps

    @staticmethod
    def _pool(theory, n: int) -> list:
        return [replace(m, name=f"M{i}")
                for i, m in enumerate(small_models(theory, n))]

    def run(self, exps, tracer=None):
        latencies, outputs = [], []
        for i, ex in enumerate(exps):
            if tracer is not None:
                tracer.item = i
            gc.collect()
            t0 = perf_counter()
            rep = birkhoff.definability_check(ex.theory, [ex.judgment], ex.pool,
                                              depth=ex.depth, size_cap=ex.size_cap)
            latencies.append(perf_counter() - t0)
            outputs.append(rep)
        return latencies, outputs

    @staticmethod
    def decided(outputs) -> int:
        return len(outputs)

    def check(self, exps, outputs) -> list[str]:
        bad = []
        for ex, rep in zip(exps, outputs):
            if rep.class_size != ex.class_size:
                bad.append(f"{ex.label}: class size {rep.class_size}, "
                           f"expected {ex.class_size}")
            elif not (rep.fixed_point and rep.orthogonality_ok) or \
                    rep.closure_failures or rep.orthogonality_failures:
                bad.append(f"{ex.label}: not a fixed point, or not orthogonal: {rep}")
            elif len(rep.pool_insufficiency) != ex.outside_pool:
                bad.append(f"{ex.label}: {len(rep.pool_insufficiency)} products "
                           f"outside the pool, expected {ex.outside_pool}")
            elif rep.orthogonality_skipped != ex.orthogonality_skipped:
                bad.append(f"{ex.label}: orthogonality skipped for "
                           f"{rep.orthogonality_skipped}, expected "
                           f"{ex.orthogonality_skipped}")
        return bad

    def digest(self, outputs) -> str:
        return _sha(repr(rep) for rep in outputs)


# ---------------------------------------------------------------------------
# cli

JUDGMENTS = """\
theory judgments
sorts: *
rel leq : * *;
axiom antisym [x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y;
"""


@dataclass
class Invocation:
    argv: list
    exit_code: int
    expect: dict        # keys that the --json report must carry, or "text"


class Cli:
    """A fixed script of ``python -m phl.cli`` runs, each in a fresh
    interpreter, one at a time; an item is one invocation."""
    name = "cli"
    POOL_SIZE = 2
    TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

    def setup(self, seed: int):
        work = WORK / "cli"
        if work.exists():
            shutil.rmtree(work)
        pool = work / "pool"
        pool.mkdir(parents=True)
        (work / "preord.phl").write_text(PREORDER_SRC)
        (work / "antisym.phl").write_text(JUDGMENTS)
        pre = syntax.parse_theory(PREORDER_SRC)
        for i, m in enumerate(small_models(pre, self.POOL_SIZE)):
            (pool / f"M{i}.model").write_text(print_model(replace(m, name=f"M{i}"),
                                                          "preord"))
        rel = os.path.relpath
        script = [
            Invocation(["check", "data/pos.phl", "data/chain2.model", "--json"], 0,
                       {"ok": True}),
            Invocation(["fmt", "data/mon.phl"], 0, {"text": "theory mon"}),
            Invocation(["free", "data/pos.phl", "[x:*, y:*] leq(x,y)", "-d", "2",
                        "--json"], 0, {"elements": 2}),
            # the image {b} of the collapse generates the closed submodel {b}
            Invocation(["factor", "data/pos.phl", "data/collapse.hom", "--json"], 0,
                       {"closed_mono": "hom incl : chain2_sub -> chain2\n"
                                       "map *: b->b;\n"}),
            Invocation(["prove", "data/pos.phl",
                        "[x:*, y:*, z:*] leq(x,y) /\\ leq(y,z) |- leq(x,z)", "--json"],
                       0, {"verdict": "Proved"}),
            Invocation(["prove", "data/mon.phl", "[x:*] true |- mul(x,x) = x",
                        "-k", "2", "--json"], 1, {"verdict": "Refuted"}),
            Invocation(["prove", "data/mon.phl", "[x:*] true |- mul(x,x) = x",
                        "--json"], 1, {"verdict": "Refuted", "model_size": 4}),
            Invocation(["prove", "data/mon.phl",
                        "[x:*, y:*] true |- mul(x,y) = mul(y,x)", "--json"], 1,
                       {"verdict": "Refuted"}),
            # posets among preorders: 1+1+2 classes up to iso with <= 2 elements
            Invocation(["birkhoff", rel(work / "preord.phl", ROOT),
                        "--pool", rel(pool, ROOT),
                        "--judgments", rel(work / "antisym.phl", ROOT),
                        "-d", "2", "--json"], 0, {"ok": True, "class_size": 4}),
        ]
        random.Random(seed).shuffle(script)
        return script

    def run(self, script, tracer=None):
        """Traced, each invocation goes through ``traced_cli.py``, and the
        summary of its process is added to the tracer's children."""
        latencies, outputs = [], []
        env = program_env()
        stats_file = WORK / "cli" / "stats.json"
        for inv in script:
            if tracer is None:
                cmd = [sys.executable, "-m", "phl.cli", *inv.argv]
            else:
                cmd = [sys.executable, str(self.TRACED_CLI), str(stats_file), *inv.argv]
            t0 = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  timeout=120)
            latencies.append(perf_counter() - t0)
            outputs.append((proc.returncode, proc.stdout, proc.stderr))
            if tracer is not None and stats_file.exists():
                tracer.children.append(json.loads(stats_file.read_text()))
                stats_file.unlink()
        return latencies, outputs

    @staticmethod
    def decided(outputs) -> int:
        return sum(code in (0, 1) for code, _, _ in outputs)

    def check(self, script, outputs) -> list[str]:
        bad = []
        for inv, (code, stdout, stderr) in zip(script, outputs):
            where = "phl " + " ".join(inv.argv[:2])
            if code != inv.exit_code:
                bad.append(f"{where}: exit {code}, expected {inv.exit_code}: "
                           f"{stderr.decode(errors='replace')[-300:]}")
                continue
            if "text" in inv.expect:
                if not stdout.decode().startswith(inv.expect["text"]):
                    bad.append(f"{where}: unexpected output")
                continue
            try:
                report = json.loads(stdout)
            except ValueError:
                bad.append(f"{where}: output is not JSON")
                continue
            got = {key: report.get(key) for key in inv.expect}
            if got != inv.expect:
                bad.append(f"{where}: {got}, expected {inv.expect}")
        return bad

    def digest(self, outputs) -> str:
        return _sha(p for code, stdout, _ in outputs for p in (str(code), stdout))


WORKLOADS = {w.name: w for w in (ProveCorpus, EnumerateModels, Definability, Cli)}
