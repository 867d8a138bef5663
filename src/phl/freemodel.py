"""Representing models by bounded term saturation and congruence closure.

The engine maintains an e-graph of provably defined terms: nodes are function
applications over congruence classes, merged by provable equality, together
with derived relation facts.  Saturation instantiates theory axioms over the
current classes; the depth budget bounds the construction depth of new nodes.
A presentation is saturated when one further pass with a relaxed budget
neither changes the graph nor defers any conclusion, in which case the
quotient structure is the exact representing model.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .semantics import (
    Homomorphism, PartialStructure, check_hom, enumerate_homs, interp_formula,
    interp_term, is_model,
)
from .syntax import (
    EQ, REL, TERM, TRUE, App, Context, Eq, Formula, PhlError, RelApp, Signature,
    Term, Theory, Var, conj, conjuncts, defined, flatten, print_term,
    subst_formula, subst_term, term_depth, well_formed,
)


class FreeModelError(PhlError):
    pass


# A trace event names the axiom whose instance caused a merge or a new fact,
# with the classes the instance bound to its context ("premise", () for the
# constraint a graph is seeded with).
TraceEvent = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class SaturationStatus:
    saturated: bool
    depth: int

    def __str__(self):
        return f"{'Saturated' if self.saturated else 'Truncated'}({self.depth})"


class TermGraph:
    """E-graph over a signature with relation facts and a derivation trace.

    Congruence closure is incremental: every application node is indexed by
    its canonical key, each class keeps the application nodes it occurs in,
    and a merge only reprocesses the parents of the absorbed class.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self.parent: list[int] = []
        self.sym: list[str | None] = []       # None for variables
        self.varname: list[str | None] = []
        self.children: list[tuple[int, ...]] = []
        self.sort: list[str] = []
        self.node_key: list[tuple | None] = []
        self.table: dict[tuple[str, tuple[int, ...]], int] = {}
        self.parents_of: dict[int, set[int]] = {}
        self.class_depth: dict[int, int] = {}
        self.facts: set[tuple[str, tuple[int, ...]]] = set()
        self.trace: list[TraceEvent] = []
        self.vars: dict[str, int] = {}
        self.n_classes = 0

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def merge(self, a: int, b: int, event: TraceEvent) -> bool:
        if self.find(a) == self.find(b):
            return False
        self.trace.append(event)
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx
            self.n_classes -= 1
            self.class_depth[rx] = min(self.class_depth[rx],
                                       self.class_depth.pop(ry))
            if any(ry in args for _, args in self.facts):
                self.facts = {(r, tuple(self.find(c) for c in args))
                              for r, args in self.facts}
            moved = self.parents_of.pop(ry, set())
            self.parents_of.setdefault(rx, set()).update(moved)
            for i in moved:
                old = self.node_key[i]
                new = (self.sym[i], tuple(self.find(c) for c in self.children[i]))
                if old == new:
                    continue
                if old is not None and self.table.get(old) == i:
                    del self.table[old]
                j = self.table.get(new)
                if j is None:
                    self.table[new] = i
                    self.node_key[i] = new
                else:
                    self.node_key[i] = None
                    if self.find(j) != self.find(i):
                        queue.append((j, i))
        return True

    def _add_node(self, sym: str | None, varname: str | None,
                  kids: tuple[int, ...], sort: str, depth: int) -> int:
        i = len(self.parent)
        key = None if sym is None else (sym, kids)
        self.parent.append(i)
        self.sym.append(sym)
        self.varname.append(varname)
        self.children.append(kids)
        self.sort.append(sort)
        self.node_key.append(key)
        self.class_depth[i] = depth
        self.n_classes += 1
        if key is not None:
            self.table[key] = i
        for k in set(kids):
            self.parents_of.setdefault(k, set()).add(i)
        return i

    def add_var(self, name: str, sort: str) -> int:
        if name in self.vars:
            return self.find(self.vars[name])
        self.vars[name] = self._add_node(None, name, (), sort, 0)
        return self.vars[name]

    def read(self, atoms, vals: list) -> bool:
        """Whether flat atoms hold in the graph, without creating nodes.
        `vals` holds canonical classes for the variable slots and receives
        the class of every subterm slot."""
        table, facts = self.table, self.facts
        get = vals.__getitem__
        for kind, name, args, out in atoms:
            if kind == EQ:
                if get(args[0]) != get(args[1]):
                    return False
            elif kind == REL:
                if (name, tuple(map(get, args))) not in facts:
                    return False
            else:
                i = table.get((name, tuple(map(get, args))))
                if i is None:
                    return False
                vals[out] = self.find(i)
        return True

    def write(self, atoms, vals: list, cap: int | None, event: TraceEvent) -> bool:
        """Drive flat conclusion atoms into the graph, creating nodes up to
        the depth cap and recording `event` for every merge or fact added;
        True if some atom was deferred for exceeding the cap.  A top-level
        term stops at its first deferred subterm."""
        find, table, parent = self.find, self.table, self.parent
        depth_of = self.class_depth.__getitem__
        deferred = stopped = False
        for kind, name, args, out in atoms:
            if kind == EQ:
                a, b = vals[args[0]], vals[args[1]]
                if a is None or b is None:
                    deferred = True
                elif find(a) != find(b):
                    self.merge(a, b, event)
                continue
            if kind == REL:
                classes = [vals[s] for s in args]
                if None in classes:
                    deferred = True
                else:
                    key = (name, tuple(map(find, classes)))
                    if key not in self.facts:   # merge rebinds self.facts
                        self.facts.add(key)
                        self.trace.append(event)
                continue
            if kind == TERM:
                stopped = False
            if stopped:
                vals[out] = None
                continue
            kids = []
            for c in args:
                c = vals[c]
                while parent[c] != c:   # find, inlined
                    parent[c] = parent[parent[c]]
                    c = parent[c]
                kids.append(c)
            kids = tuple(kids)
            i = table.get((name, kids))
            if i is not None:
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                vals[out] = i
                continue
            d = 1 + max(map(depth_of, kids), default=0)
            if cap is not None and d > cap:
                vals[out] = None
                stopped = True
            else:
                vals[out] = self._add_node(name, None, kids,
                                           self.sig.function(name).result, d)
        return deferred

    def lookup(self, term: Term, env: dict[str, int]) -> int | None:
        """Class of a term over an environment, without creating nodes."""
        clause = flatten(tuple(env), defined(term))
        vals = _slots(self, clause, env)
        if not self.read(clause.premise, vals):
            return None
        return vals[clause.terms.index(term)]

    def stamp(self) -> tuple[int, int, int]:
        return (len(self.parent), self.n_classes, len(self.facts))

    def classes_by_sort(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {s: [] for s in self.sig.sorts}
        seen = set()
        for i in range(len(self.parent)):
            r = self.find(i)
            if r not in seen:
                seen.add(r)
                out[self.sort[r]].append(r)
        for s in out:
            out[s].sort()
        return out

    def copy(self) -> "TermGraph":
        g = TermGraph(self.sig)
        g.parent = list(self.parent)
        g.sym = list(self.sym)
        g.varname = list(self.varname)
        g.children = list(self.children)
        g.sort = list(self.sort)
        g.node_key = list(self.node_key)
        g.table = dict(self.table)
        g.parents_of = {k: set(v) for k, v in self.parents_of.items()}
        g.class_depth = dict(self.class_depth)
        g.facts = set(self.facts)
        g.trace = list(self.trace)
        g.vars = dict(self.vars)
        g.n_classes = self.n_classes
        return g

    def representatives(self) -> dict[int, Term]:
        """Deterministic canonical term per class, minimal by
        (depth, print length, print)."""
        reps: dict[int, Term] = {}

        def key(t: Term):
            s = print_term(t)
            return (term_depth(t), len(s), s)

        changed = True
        while changed:
            changed = False
            for i in range(len(self.parent)):
                r = self.find(i)
                if self.sym[i] is None:
                    cand: Term | None = Var(self.varname[i])
                else:
                    kid_terms = []
                    for c in self.children[i]:
                        t = reps.get(self.find(c))
                        if t is None:
                            kid_terms = None
                            break
                        kid_terms.append(t)
                    cand = (App(self.sym[i], tuple(kid_terms))
                            if kid_terms is not None else None)
                if cand is None:
                    continue
                cur = reps.get(r)
                if cur is None or key(cand) < key(cur):
                    reps[r] = cand
                    changed = True
        return reps


def _slots(g: TermGraph, clause, env: dict[str, int]) -> list:
    vals = [g.find(env[n]) for n in env]
    return vals + [None] * (len(clause.terms) - len(vals))


def holds_in_graph(g: TermGraph, f: Formula, env: dict[str, int]) -> bool:
    """Whether a formula instance is established by the current graph."""
    clause = flatten(tuple(env), f)
    return g.read(clause.premise, _slots(g, clause, env))


def assert_in_graph(g: TermGraph, f: Formula, env: dict[str, int],
                    cap: int | None, event: TraceEvent) -> bool:
    """Drive a formula instance into the graph; True if some atom was
    deferred for exceeding the depth budget."""
    clause = flatten(tuple(env), TRUE, f)
    return g.write(clause.conclusion, _slots(g, clause, env), cap, event)


DEFAULT_WORK_BUDGET = 500_000


class WorkBudget:
    """Mutable instantiation allowance shared across saturation passes."""

    def __init__(self, limit: int = DEFAULT_WORK_BUDGET):
        self.remaining = limit
        self.exhausted = False


def saturation_pass(theory: Theory, g: TermGraph, cap: int | None,
                    budget: WorkBudget | None = None) -> tuple[bool, bool]:
    """One full pass of axiom instantiation; returns (changed, deferred).

    Environments range over the classes canonical at the start of the pass,
    axiom by axiom in `itertools.product` order; classes absorbed mid-pass
    are skipped (their instances are covered at the absorbing class, which
    is always the older one).  Every environment, skipped or not, spends one
    unit of the work budget.  The first environment beyond the budget
    aborts the pass, which then counts as a deferral: `budget.remaining`
    drops by the environments tried plus the aborting one and
    `budget.exhausted` is set."""
    before = g.stamp()
    deferred = False
    classes = g.classes_by_sort()
    starting = [c for cs in classes.values() for c in cs]
    parent, read, write = g.parent, g.read, g.write
    absorbed: set[int] = set()      # members of `starting` absorbed so far
    merges = len(parent) - g.n_classes    # absorbed nodes, counted to spot a merge
    left = math.inf if budget is None else budget.remaining
    for ax in theory.axioms:
        seq = ax.sequent
        clause = flatten(seq.context.names, seq.premise, seq.conclusion)
        premise, conclusion, name = clause.premise, clause.conclusion, ax.name
        pad = [None] * (len(clause.terms) - len(seq.context))
        pools = [classes[s] for _, s in seq.context.vars]
        combos = itertools.product(*pools)
        n = math.prod(map(len, pools))
        allowed = max(left, 0)
        abort = n > allowed
        if abort:
            combos = itertools.islice(combos, allowed)
        else:
            left -= n
        for combo in combos:
            if absorbed and not absorbed.isdisjoint(combo):
                continue
            vals = [*combo, *pad]
            if premise and not read(premise, vals):
                continue
            deferred |= write(conclusion, vals, cap, (name, combo))
            if len(parent) - g.n_classes != merges:
                merges = len(parent) - g.n_classes
                absorbed = {c for c in starting if parent[c] != c}
        if abort:
            budget.remaining = left - allowed - 1
            budget.exhausted = True
            return g.stamp() != before, True
    if budget is not None:
        budget.remaining = left
    return g.stamp() != before, deferred


def saturate(theory: Theory, ctx: Context, constraint: Formula, depth: int,
             goal: Formula | None = None,
             max_work: int | None = None) -> tuple[TermGraph, bool, bool, bool]:
    """Saturate the term graph of a constrained context.

    Returns (graph, saturated, work budget exhausted, goal reached).  The
    constraint is seeded without a budget, so terms occurring in it always
    materialize.  When a goal formula is supplied, saturation stops as soon
    as the generic tuple provably satisfies it (sound: derived facts only
    grow).  The work budget bounds total axiom instantiations (None selects
    DEFAULT_WORK_BUDGET); exhausting it yields a truncated result.
    """
    if depth < 0:
        raise FreeModelError("depth must be >= 0")
    if max_work is None:
        max_work = DEFAULT_WORK_BUDGET
    elif max_work < 0:
        raise FreeModelError("work budget must be >= 0")
    g = TermGraph(theory.signature)
    env = {name: g.add_var(name, sort) for name, sort in ctx.vars}
    assert_in_graph(g, constraint, env, None, ("premise", ()))
    cap = max([depth] + list(g.class_depth.values()))
    budget = WorkBudget(max_work)

    def goal_reached() -> bool:
        return goal is not None and holds_in_graph(
            g, goal, {n: g.find(i) for n, i in g.vars.items()})

    if goal_reached():
        return g, False, False, True
    while True:
        changed, _ = saturation_pass(theory, g, cap, budget)
        if goal_reached():
            return g, False, budget.exhausted, True
        if not changed or budget.exhausted:
            break
    if budget.exhausted:
        return g, False, True, False
    probe = g.copy()
    changed, deferred = saturation_pass(theory, probe, cap + 1, budget)
    saturated = not changed and not deferred and not budget.exhausted
    return g, saturated, budget.exhausted, False


@dataclass
class ModelPresentation:
    """A representing model presented by a context and constraint formula,
    carried by a saturated (or depth-truncated) term graph."""
    theory: Theory
    context: Context
    constraint: Formula
    status: SaturationStatus
    graph: TermGraph

    @cached_property
    def reps(self) -> dict[int, Term]:
        return self.graph.representatives()

    @cached_property
    def rep_ids(self) -> dict[int, str]:
        return {c: print_term(t) for c, t in self.reps.items()}

    @cached_property
    def structure(self) -> PartialStructure:
        g = self.graph
        ids = self.rep_ids
        carriers = {}
        for s, classes in g.classes_by_sort().items():
            named = sorted((ids[c] for c in classes),
                           key=lambda x: (len(x), x))
            carriers[s] = tuple(named)
        funcs: dict[str, dict[tuple[str, ...], str]] = {}
        for (fname, kids), node in g.table.items():
            funcs.setdefault(fname, {})[tuple(ids[g.find(k)] for k in kids)] = \
                ids[g.find(node)]
        rels: dict[str, frozenset] = {}
        for rname, kids in g.facts:
            rels.setdefault(rname, set()).add(tuple(ids[g.find(k)] for k in kids))
        rels = {r: frozenset(v) for r, v in rels.items()}
        return PartialStructure("repn", self.theory.signature, carriers, funcs, rels)

    @property
    def generic_env(self) -> dict[str, int]:
        return {name: self.graph.find(i) for name, i in self.graph.vars.items()}

    @property
    def generic_tuple(self) -> tuple[str, ...]:
        return tuple(self.rep_ids[self.graph.find(self.graph.vars[n])]
                     for n in self.context.names)

    def element_count(self) -> int:
        return sum(len(c) for c in self.structure.carriers.values())

    def term_class(self, term: Term) -> str | None:
        """Representative id of a term over the generator context, or None if
        it is not an element within the recorded depth."""
        c = self.graph.lookup(term, self.generic_env)
        return None if c is None else self.rep_ids[c]

    def terms_equal(self, a: Term, b: Term) -> bool | None:
        ca = self.graph.lookup(a, self.generic_env)
        cb = self.graph.lookup(b, self.generic_env)
        if ca is None or cb is None:
            return None
        return ca == cb

    def entails(self, f: Formula) -> bool:
        """Whether the generic tuple satisfies a formula over the context,
        within the recorded budget."""
        return holds_in_graph(self.graph, f, self.generic_env)


def representing_model(theory: Theory, ctx: Context, constraint: Formula,
                       depth: int,
                       max_work: int | None = None) -> ModelPresentation:
    """The representing model of a constrained context, built to a depth."""
    diags = well_formed(constraint, theory.signature, ctx)
    if diags:
        raise FreeModelError("ill-formed constraint: " + "; ".join(map(str, diags)))
    g, saturated, _, _ = saturate(theory, ctx, constraint, depth,
                                     max_work=max_work)
    p = ModelPresentation(theory, ctx, constraint, SaturationStatus(saturated, depth), g)
    if saturated:
        report = is_model(p.structure, theory)
        if not report.ok:
            raise FreeModelError(
                f"saturated presentation failed model check: {report.violations}")
    return p


# ---------------------------------------------------------------------------
# representability and morphisms of presentations

@dataclass(frozen=True)
class YonedaReport:
    interp_size: int
    hom_size: int
    bijective: bool


def yoneda_check(p: ModelPresentation, m: PartialStructure) -> YonedaReport:
    """Verify that tuples of the constraint's interpretation correspond
    bijectively to homomorphisms out of the presentation."""
    if not p.status.saturated:
        raise FreeModelError("yoneda_check requires a saturated presentation")
    tuples = sorted(interp_formula(m, p.context, p.constraint))
    struct = p.structure
    seen_maps = []
    ok = True
    for tup in tuples:
        maps: dict[str, dict[str, str]] = {s: {} for s in struct.signature.sorts}
        for c, rep in p.reps.items():
            val = interp_term(m, p.context, rep, tup)
            if val is None:
                ok = False
                break
            maps[p.graph.sort[c]][p.rep_ids[c]] = val
        else:
            h = Homomorphism("yoneda", struct, m, maps)
            if not check_hom(h):
                ok = False
            if maps in seen_maps:
                ok = False
            seen_maps.append(maps)
            continue
        break
    homs = enumerate_homs(struct, m)
    bij = ok and len(seen_maps) == len(tuples) == len(homs) and \
        all(h.maps in seen_maps for h in homs)
    return YonedaReport(len(tuples), len(homs), bij)


@dataclass(frozen=True)
class RepnMorphism:
    """Morphism of representing models induced by a term vector over the
    target's context."""
    source: ModelPresentation
    target: ModelPresentation
    terms: tuple[Term, ...]
    hom: Homomorphism


def repn_morphism(source: ModelPresentation, target: ModelPresentation,
                  terms) -> RepnMorphism:
    """The homomorphism sending a class [s] to [s(terms/x)], provided the
    target provably satisfies the instantiated source constraint."""
    terms = tuple(terms)
    if not source.status.saturated or not target.status.saturated:
        raise FreeModelError("repn_morphism requires saturated presentations")
    if len(terms) != len(source.context):
        raise FreeModelError("term vector does not match the source context")
    assignment = dict(zip(source.context.names, terms))
    obligation = subst_formula(source.constraint, assignment)
    if not target.entails(obligation):
        raise FreeModelError(
            "obligation not established: target does not prove the "
            f"instantiated constraint {print_term_vector(terms)}")
    maps: dict[str, dict[str, str]] = {s: {} for s in source.theory.signature.sorts}
    for c, rep in source.reps.items():
        image_term = subst_term(rep, assignment)
        tc = target.graph.lookup(image_term, target.generic_env)
        if tc is None:
            raise FreeModelError(
                f"image of {print_term(rep)} not present in the target")
        maps[source.graph.sort[c]][source.rep_ids[c]] = target.rep_ids[tc]
    h = Homomorphism("repn", source.structure, target.structure, maps)
    if not check_hom(h):
        raise FreeModelError("induced map is not a homomorphism")
    return RepnMorphism(source, target, terms, h)


def print_term_vector(terms) -> str:
    return "(" + ", ".join(print_term(t) for t in terms) + ")"


def repn_coequalizer(f: RepnMorphism, g: RepnMorphism, depth: int) -> ModelPresentation:
    """Coequalizer of a parallel pair of presentation morphisms, presented by
    conjoining the component equations to the target constraint."""
    if f.source is not g.source and f.source.constraint != g.source.constraint:
        raise FreeModelError("not a parallel pair: different sources")
    if f.target is not g.target and f.target.constraint != g.target.constraint:
        raise FreeModelError("not a parallel pair: different targets")
    eqs = [Eq(a, b) for a, b in zip(f.terms, g.terms)]
    formula = conj(list(conjuncts(f.target.constraint)) + eqs)
    return representing_model(f.target.theory, f.target.context, formula, depth)


# ---------------------------------------------------------------------------
# free algebras over a relative theory

@dataclass(frozen=True)
class FreeAlgebraResult:
    presentation: ModelPresentation
    unit: Homomorphism          # base model -> underlying structure of the free algebra
    generators: dict[str, tuple[str, str]]  # variable -> (sort, base element)


def free_algebra(rel_theory, base_model: PartialStructure,
                 depth: int) -> FreeAlgebraResult:
    """Free algebra on a base-theory model, as the representing model of the
    model's diagram: one generator per element, one constraint per table
    entry."""
    from .translation import pht_of
    theory = pht_of(rel_theory)
    sig = base_model.signature
    var_of: dict[tuple[str, str], str] = {}
    ctx_entries = []
    generators = {}
    i = 0
    for s in sig.sorts:
        for a in base_model.carrier(s):
            v = f"g{i}"
            i += 1
            var_of[(s, a)] = v
            ctx_entries.append((v, s))
            generators[v] = (s, a)
    ctx = Context(tuple(ctx_entries))
    atoms: list[Formula] = []
    for fdecl in sig.functions:
        for args, val in sorted(base_model.func_table(fdecl.name).items()):
            term = App(fdecl.name,
                       tuple(Var(var_of[(s, a)]) for s, a in zip(fdecl.arg_sorts, args)))
            atoms.append(Eq(term, Var(var_of[(fdecl.result, val)])))
    for rdecl in sig.relations:
        for args in sorted(base_model.rel_table(rdecl.name)):
            atoms.append(RelApp(rdecl.name,
                                tuple(Var(var_of[(s, a)])
                                      for s, a in zip(rdecl.arg_sorts, args))))
    constraint = conj(atoms)
    p = representing_model(theory, ctx, constraint, depth)

    underlying = forget_to_base(p.structure, sig)
    maps: dict[str, dict[str, str]] = {s: {} for s in sig.sorts}
    for (s, a), v in var_of.items():
        c = p.graph.find(p.graph.vars[v])
        maps[s][a] = p.rep_ids[c]
    unit = Homomorphism("unit", base_model, underlying, maps)
    if not check_hom(unit):
        raise FreeModelError("unit of the free algebra is not a homomorphism")
    return FreeAlgebraResult(p, unit, generators)


def forget_to_base(m: PartialStructure, base_sig: Signature) -> PartialStructure:
    """Drop operator tables, keeping only the base-signature part."""
    funcs = {f.name: dict(m.func_table(f.name)) for f in base_sig.functions}
    rels = {r.name: m.rel_table(r.name) for r in base_sig.relations}
    carriers = {s: m.carrier(s) for s in base_sig.sorts}
    return PartialStructure(m.name, base_sig, carriers, funcs, rels)
