"""Representing models by bounded term saturation and congruence closure.

The engine maintains an e-graph of provably defined terms: nodes are function
applications over congruence classes, merged by provable equality, together
with derived relation facts.  Saturation instantiates theory axioms over the
current classes; the depth budget bounds the construction depth of new nodes.
A presentation is saturated when a pass changes nothing and defers no
conclusion, in which case the quotient structure is the exact representing
model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .semantics import (
    Homomorphism, PartialStructure, check_hom, enumerate_homs, interp_formula,
    interp_term, is_model,
)
from .syntax import (
    EQ, FUN, REL, TERM, TRUE, App, Context, Eq, Formula, PhlError, Signature,
    Term, Theory, Var, conj, conjuncts, flatten, print_term,
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
    and a merge only reprocesses the parents of the absorbed class.  Formulas
    are matched against the graph and written into it by compiled flat
    clauses (`_compiled`), which read `parent`, `table`, `class_depth` and
    `facts` directly.  A clause runs its whole loop over given classes of its
    variables and tells a class absorbed since by `parent[c] != c`.
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

    def lookup(self, term: Term, env: dict[str, int]) -> int | None:
        """Class of a term over an environment, read bottom-up from the table
        without creating nodes; None when some subterm has no node."""
        if isinstance(term, Var):
            return self.find(env[term.name])
        kids = tuple(self.lookup(t, env) for t in term.args)
        i = None if None in kids else self.table.get((term.func, kids))
        return None if i is None else self.find(i)

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


# ---------------------------------------------------------------------------
# flat clauses compiled for the graph

@lru_cache(maxsize=1024)
def _compiled(clause, nvars: int, sig: Signature):
    """A flat clause as a Python function `run(g, pools, limit, cap, name,
    event=None)` that tries it at the environments of the product of
    `pools`, the classes of its first `nvars` slots, in `itertools.product`
    order.

    `run` counts the environments and stops before the one numbered `limit`.
    An environment whose classes are not all canonical is counted and
    skipped, a whole block at once when an outer slot's class is not.  At
    the others, if the premise holds, `run` drives the conclusion into `g`.
    The premise only reads the graph: an equation compares classes as given,
    and a subterm slot receives the canonical class of its node.  The
    conclusion creates each missing node at one more than the depth of its
    deepest child, unless that exceeds `cap` (a number, `math.inf` for no
    cap), in which case its top-level term stops there and yields no class;
    an atom over a term without a class is deferred.  Every merge or new
    fact records `event`, by default `(name, environment)`.  `run` returns
    True if some atom was deferred; a clause without conclusion atoms
    returns False if the premise held at some environment and None
    otherwise.

    Slot i is the local `v{i}` and pool i is `p{i}`; symbol and sort names
    enter the source only as literals.  Slots stay canonical until the
    conclusion's first merge, so no `find` runs on them before it.  A table
    lookup over context slots only, before that merge, is read in the loop
    that binds the last of them (into `h{slot}`) and read again where it is
    used if a node was added or a merge made since (the count `mut`, as of
    `hm{slot}`)."""
    hoisted: dict[int, tuple[int, str]] = {}      # slot -> (level, key)

    def hoist(sym, args, slot, merged) -> list[str] | None:
        """Hoist the lookup of `slot` if it can be, and return the source
        that brings it up to date where it is used; None if it is read in
        place."""
        level = max(args, default=-1)
        if merged or level >= nvars - 1 or any(a >= nvars for a in args):
            return None
        key = f"({sym!r}, {_tuple([f'v{a}' for a in args])})"
        hoisted[slot] = (level, key)
        return [f"if hm{slot} != mut:", *_indent(_read(slot, key))]

    fail = "continue" if nvars else "return deferred"
    body: list[str] = []
    for kind, sym, args, slot in clause.premise:
        key = f"({sym!r}, {_tuple([f'v{a}' for a in args])})"
        if kind == EQ:
            if args[0] != args[1]:
                body.append(f"if v{args[0]} != v{args[1]}: {fail}")
        elif kind == REL:
            body.append(f"if {key} not in g.facts: {fail}")
        elif (refresh := hoist(sym, args, slot, False)) is not None:
            body += [*refresh, f"if h{slot} is None: {fail}", f"v{slot} = h{slot}"]
        else:
            body += [f"i = table.get({key})", f"if i is None: {fail}",
                     _find("i"), f"v{slot} = i"]
    atoms = clause.conclusion
    if not atoms:
        body.append("deferred = False")
    record = (f"(name, {_tuple([f'v{a}' for a in range(nvars)])}) "
              "if event is None else event")
    merged = False
    unset: set[int] = set()     # slots of top-level terms, None if deferred
    for k, (kind, sym, args, _) in enumerate(atoms):
        if kind == TERM:
            end = next((j for j in range(k + 1, len(atoms))
                        if atoms[j][0] != FUN), len(atoms))
            body += _term_source(atoms[k:end], sig, nvars, merged, hoist)
            unset.add(atoms[end - 1][3])
        elif kind != FUN:       # FUN atoms belong to the term before them
            body += _atom_source(kind, sym, args, unset, nvars, merged, record)
            merged = merged or (kind == EQ and args[0] != args[1])
    if merged and nvars > 1:    # an outer class absorbed: skip its block
        body.append(f"if {_absorbed(nvars - 1)}: break")

    loops = ["parent, table, depth = g.parent, g.table, g.class_depth",
             "deferred = None", "count = mut = 0"]
    if nvars:
        loops.append(f"{_tuple([f'p{m}' for m in range(nvars)])} = pools")
        # w{m}: the environments of one turn of the loop over p{m - 1}
        loops += [f"w{m} = len(p{m})" + (f" * w{m + 1}" if m + 1 < nvars else "")
                  for m in reversed(range(min(1, nvars - 1), nvars))]
    else:
        loops.append("if limit < 1: return deferred")
    reads = {m: [] for m in range(-1, nvars)}
    for slot, (level, key) in sorted(hoisted.items()):
        reads[level] += _read(slot, key)
    loops += reads[-1]
    for m in range(nvars):
        if m + 1 < nvars:
            block = [f"for v{m} in p{m}:", f"    if {_absorbed(m + 1)}:",
                     f"        count += w{m + 1}", "        continue",
                     *_indent(reads[m])]
        else:
            block = ["rest = limit - count", "if rest <= 0: return deferred",
                     f"count += w{m}",
                     f"for v{m} in (p{m} if rest >= w{m} else p{m}[:rest]):",
                     f"    if parent[v{m}] != v{m}: continue"]
        loops += _indent(block, m)
    loops += _indent(body, nvars)
    loops.append("return deferred")
    namespace: dict = {}
    source = "def run(g, pools, limit, cap, name, event=None):\n" + \
        "".join(f"    {line}\n" for line in loops)
    exec(compile(source, "<phl clause>", "exec"), namespace)
    return namespace["run"]


def _tuple(items: list[str]) -> str:
    """Source of a tuple display."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _indent(lines: list[str], times: int = 1) -> list[str]:
    return ["    " * times + line for line in lines]


def _find(x: str) -> str:
    """Source that replaces the local `x` by its canonical class, halving
    paths as `TermGraph.find` does."""
    return (f"while parent[{x}] != {x}: "
            f"parent[{x}] = parent[parent[{x}]]; {x} = parent[{x}]")


def _absorbed(n: int) -> str:
    """Source of the test that one of the first `n` context classes is no
    longer canonical."""
    return " or ".join(f"parent[v{m}] != v{m}" for m in range(n))


def _read(slot: int, key: str) -> list[str]:
    """Source that reads the canonical class of the node `key`, or None,
    into `h{slot}` as of the write count `mut`."""
    return [f"h{slot} = table.get({key})", f"if h{slot} is not None:",
            "    " + _find(f"h{slot}"), f"hm{slot} = mut"]


def _term_source(atoms, sig: Signature, nvars: int, merged: bool,
                 hoist) -> list[str]:
    """Source of one top-level term of a conclusion: its atoms in order,
    stopping at the first node deeper than the cap with the term's slot
    None.  Its context slots need a `find` once the conclusion `merged`;
    `hoist` gives the source of a hoisted lookup."""
    top = atoms[-1][3]
    out: list[str] = []
    made: set[int] = set()      # slots of this term, already canonical
    for _, sym, args, slot in atoms:
        kids = []
        for j, a in enumerate(args):
            if a in made or (a < nvars and not merged):
                kids.append(f"v{a}")
            else:
                out += [f"k{j} = v{a}", _find(f"k{j}")]
                kids.append(f"k{j}")
        key = _tuple(kids)
        create = [*_depth_source(kids), "if d <= cap:",
                  f"    i = g._add_node({sym!r}, None, {key}, "
                  f"{sig.function(sym).result!r}, d)",
                  "    mut += 1"]
        if slot != top:
            create += ["else:", f"    v{top} = None", "    break"]
        refresh = hoist(sym, args, slot, merged)
        if refresh is None:
            out += [f"i = table.get(({sym!r}, {key}))", "if i is None:",
                    *_indent(create), "else:", "    " + _find("i")]
        else:
            out += [*refresh, f"i = h{slot}", "if i is None:", *_indent(create)]
        out.append(f"v{slot} = i")
        made.add(slot)
    if len(atoms) == 1:
        return out
    return ["while True:", *_indent(out), "    break"]


def _depth_source(kids: list[str]) -> list[str]:
    """Source that sets `d` to one more than the deepest of the classes
    `kids`."""
    kids = list(dict.fromkeys(kids))
    if len(kids) < 2:
        return [f"d = 1 + depth[{kids[0]}]" if kids else "d = 1"]
    out = [f"d = depth[{kids[0]}]"]
    for k in kids[1:]:
        out += [f"e = depth[{k}]", "if e > d: d = e"]
    return out + ["d += 1"]


def _atom_source(kind: str, sym: str | None, args, unset: set[int], nvars: int,
                 merged: bool, record: str) -> list[str]:
    """Source of an equation or relation atom of a conclusion."""
    missing = " or ".join(f"v{a} is None" for a in dict.fromkeys(args)
                          if a in unset)
    if kind == EQ and args[0] == args[1]:       # def(t): only its term's class
        return [f"if {missing}: deferred = True"] if missing else []
    out: list[str] = []
    classes = []
    for j, a in enumerate(args):
        if merged and a < nvars:
            out += [f"c{j} = v{a}", _find(f"c{j}")]
            classes.append(f"c{j}")
        else:
            classes.append(f"v{a}")
    if kind == EQ:
        c0, c1 = classes
        out += [f"if {c0} != {c1}:", f"    g.merge({c0}, {c1}, {record})",
                "    mut += 1"]
    else:
        out += [f"key = ({sym!r}, {_tuple(classes)})",
                "if key not in g.facts:",
                "    g.facts.add(key)",
                f"    g.trace.append({record})"]
    if not missing:
        return out
    return [f"if {missing}: deferred = True", "else:", *_indent(out)]


def holds_in_graph(g: TermGraph, f: Formula, env: dict[str, int]) -> bool:
    """Whether a formula instance is established by the current graph."""
    run = _compiled(flatten(tuple(env), f), len(env), g.sig)
    pools = [(g.find(i),) for i in env.values()]
    return run(g, pools, 1, None, None) is not None


def assert_in_graph(g: TermGraph, f: Formula, env: dict[str, int]) -> None:
    """Drive a formula instance into the graph with no depth cap, recording
    each merge and fact as the seeded constraint's `("premise", ())`
    event."""
    run = _compiled(flatten(tuple(env), TRUE, f), len(env), g.sig)
    pools = [(g.find(i),) for i in env.values()]
    run(g, pools, 1, math.inf, None, ("premise", ()))


DEFAULT_WORK_BUDGET = 500_000


def saturation_pass(theory: Theory, g: TermGraph, cap: int,
                    left: int) -> tuple[bool, bool, int]:
    """One full pass of axiom instantiation; returns (changed, deferred, left).

    Environments range over the classes canonical at the start of the pass,
    axiom by axiom in `itertools.product` order, and each axiom's compiled
    clause runs its whole loop over them; classes absorbed mid-pass are
    skipped (their instances are covered at the absorbing class, which is
    always the older one).  Every environment, skipped or not, spends one
    unit of the work budget `left`.  An axiom with more environments than
    are left tries only those left and aborts the pass, which then counts as
    a deferral, and the `left` returned is negative."""
    before = g.stamp()
    deferred = False
    classes = g.classes_by_sort()
    for ax in theory.axioms:
        seq = ax.sequent
        run = _compiled(flatten(seq.context.names, seq.premise, seq.conclusion),
                        len(seq.context), g.sig)
        pools = [classes[s] for _, s in seq.context.vars]
        n = math.prod(map(len, pools))
        if run(g, pools, min(n, left), cap, ax.name):
            deferred = True
        left -= n
        if left < 0:
            return g.stamp() != before, True, left
    return g.stamp() != before, deferred, left


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
    Otherwise saturation stops at the first pass that changes nothing, and
    is complete if that pass deferred nothing: every class is at most `cap`
    deep, so the same pass with a higher cap would change the graph exactly
    when this one deferred something.
    """
    if depth < 0:
        raise FreeModelError("depth must be >= 0")
    if max_work is None:
        max_work = DEFAULT_WORK_BUDGET
    elif max_work < 0:
        raise FreeModelError("work budget must be >= 0")
    g = TermGraph(theory.signature)
    env = {name: g.add_var(name, sort) for name, sort in ctx.vars}
    assert_in_graph(g, constraint, env)
    cap = max([depth] + list(g.class_depth.values()))

    def goal_reached() -> bool:
        return goal is not None and holds_in_graph(
            g, goal, {n: g.find(i) for n, i in g.vars.items()})

    if goal_reached():
        return g, False, False, True
    left = max_work
    while True:
        changed, deferred, left = saturation_pass(theory, g, cap, left)
        if goal_reached():
            return g, False, left < 0, True
        if left < 0:
            return g, False, True, False
        if not changed:
            return g, not deferred, False, False


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
