"""Desk-scale variety laboratory: closure operators over finite universes of
finite models, definability experiments, and posetification diagnostics.
"""
from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Callable

from .freemodel import representing_model, repn_morphism
from .morphology import closed_submodels, is_retraction, orthogonal
from .semantics import (
    Homomorphism, PartialStructure, SemanticsError, exists_hom,
    holds, is_model, iter_homs, product,
)
from .syntax import PhlError, Theory, Var, conj, conjuncts


class BirkhoffError(PhlError):
    pass


# ---------------------------------------------------------------------------
# canonical forms

@dataclass(frozen=True)
class CanonicalForm:
    """What `canonical_form` finds for a structure.

    `certificate` is the signature, the carrier sizes and the table entries
    of the structure's view relabelled by `labelling` and sorted: two
    structures have equal certificates exactly when they are isomorphic.
    `labelling[i]` is the canonical position of element i of the view.
    Each generator g is an automorphism sending element i to element
    `g[i]`, and together they generate the automorphism group.  `nodes` and
    `leaves` count the search tree's nodes and leaves."""
    certificate: tuple
    labelling: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    nodes: int
    leaves: int


def canonical_form(m: PartialStructure) -> CanonicalForm:
    """The canonical form of m (cached on the structure), found by
    individualization-refinement with automorphism pruning (McKay &
    Piperno, "Practical graph isomorphism, II", 2014)."""
    form = m.__dict__.get("_canonical_form")
    if form is None:
        form = _CanonicalSearch(m).run()
        object.__setattr__(m, "_canonical_form", form)
    return form


class _FirstLeafAgain(Exception):
    """A leaf equal to the first leaf was reached."""


class _CanonicalSearch:
    """One search tree over a structure's view.

    A node is an ordered partition of the elements, held as each element's
    cell number and made equitable by `refine`.  Its children individualize
    each element of its target cell, the first cell with two elements or
    more; a leaf is a discrete partition, read as a labelling.  Refinement
    and the target cell depend on sorts and table entries only, never on
    element names, so isomorphic structures have the same leaves up to
    relabelling, and the least relabelled entry list over the leaves is the
    certificate.

    The first path individualizes the least element of each target cell.
    The search then backs up along it from the bottom and searches a
    sibling subtree only when no automorphism found so far that fixes the
    path above maps the sibling to an earlier one; inside the subtrees the
    same rule prunes.  A leaf equal to the first leaf gives an automorphism
    mapping its subtree onto the first path's, so the search jumps back to
    the first path; a leaf equal to the best leaf gives one too.  At each
    level of the first path the search goes on until the automorphisms
    found fixing the path above join every sibling in the first element's
    orbit to it, so they generate the whole group."""

    def __init__(self, m: PartialStructure):
        view, sig = m.view, m.signature
        symbol = {d.name: k for k, d in enumerate(sig.functions + sig.relations)}
        self.n = len(view.elems)
        self.entries = [(symbol[name], ids) for name, ids in view.funcs + view.rels]
        sizes = tuple(len(m.carrier(s)) for s in sig.sorts)
        self.head = (sig, sizes)
        self.start = [c for c, size in enumerate(x for x in sizes if x)
                      for _ in range(size)]
        self.generators: list[tuple[int, ...]] = []
        self.nodes, self.leaves = 1, 0     # the root is a node

    def refine(self, colour: list[int], cells: int) -> tuple[list[int], int]:
        """The coarsest equitable partition finer than `colour`: each round
        splits every cell by the multiset of (position, symbol, cells of the
        entry) over the entries an element occurs in, and orders the parts
        of a cell by those multisets."""
        n, entries = self.n, self.entries
        while cells < n:
            feats: list[list] = [[] for _ in colour]
            for k, ids in entries:
                key = (k, *[colour[i] for i in ids])
                for pos, e in enumerate(ids):
                    feats[e].append((pos, key))
            keys = [(c, *sorted(f)) for c, f in zip(colour, feats)]
            order = sorted(set(keys))
            if len(order) == cells:
                break
            rank = {key: r for r, key in enumerate(order)}
            colour = [rank[key] for key in keys]
            cells = len(order)
        return colour, cells

    def child(self, colour: list[int], cells: int, v: int) -> tuple[list[int], int]:
        """The node that individualizes v: v's cell splits into v, then the
        rest."""
        self.nodes += 1
        c = colour[v]
        return self.refine([x + (x > c or x == c and e != v)
                            for e, x in enumerate(colour)], cells + 1)

    @staticmethod
    def target(colour: list[int], cells: int) -> list[int]:
        counts = [0] * cells
        for c in colour:
            counts[c] += 1
        c = next(c for c, k in enumerate(counts) if k > 1)
        return [e for e, x in enumerate(colour) if x == c]

    def least_in_orbit(self, w: int, fixed: list[int]) -> bool:
        """Whether no automorphism generated by those found so far that fix
        every element of `fixed` maps w to a smaller element."""
        gens = [g for g in self.generators if all(g[v] == v for v in fixed)]
        orbit, todo = {w}, [w]
        for x in todo:
            for g in gens:
                y = g[x]
                if y < w:
                    return False
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        return True

    def leaf(self, lab: list[int]) -> tuple:
        self.leaves += 1
        return tuple(sorted((k, *[lab[i] for i in ids]) for k, ids in self.entries))

    def run(self) -> CanonicalForm:
        colour, cells = self.refine(self.start, len(set(self.start)))
        path = []
        while cells < self.n:
            cell = self.target(colour, cells)
            path.append((colour, cells, cell))
            colour, cells = self.child(colour, cells, cell[0])
        self.first = self.best = (self.leaf(colour), colour)
        for level in range(len(path) - 1, -1, -1):
            colour, cells, cell = path[level]
            fixed = [p[2][0] for p in path[:level]]
            for w in cell[1:]:
                if self.least_in_orbit(w, fixed):
                    try:
                        self.search(*self.child(colour, cells, w), fixed + [w])
                    except _FirstLeafAgain:
                        pass
        cert, lab = self.best
        return CanonicalForm((*self.head, cert), tuple(lab),
                             tuple(self.generators), self.nodes, self.leaves)

    def search(self, colour: list[int], cells: int, fixed: list[int]) -> None:
        if cells == self.n:
            self.reached(colour)
            return
        for w in self.target(colour, cells):
            if self.least_in_orbit(w, fixed):
                self.search(*self.child(colour, cells, w), fixed + [w])

    def reached(self, lab: list[int]) -> None:
        cert = self.leaf(lab)
        if cert == self.first[0]:
            self.generators.append(_mapping(lab, self.first[1]))
            raise _FirstLeafAgain
        if cert == self.best[0]:
            self.generators.append(_mapping(lab, self.best[1]))
        elif cert < self.best[0]:
            self.best = (cert, lab)


def _mapping(lab, onto) -> tuple[int, ...]:
    """The map sending the element at each position of labelling `lab` to
    the element at the same position of labelling `onto`."""
    at = [0] * len(onto)
    for e, p in enumerate(onto):
        at[p] = e
    return tuple(at[p] for p in lab)


# ---------------------------------------------------------------------------
# universes of models up to isomorphism

def find_iso(m: PartialStructure, n: PartialStructure):
    """A pair of mutually inverse homomorphisms m -> n and n -> m, or None
    when the structures are not isomorphic: with equal certificates, each
    element of m goes to the element of n at the same canonical position."""
    cm, cn = canonical_form(m), canonical_form(n)
    if cm.certificate != cn.certificate:
        return None
    em, en = m.view.elems, n.view.elems
    maps = {s: {} for s in m.signature.sorts}
    for i, j in enumerate(_mapping(cm.labelling, cn.labelling)):
        (s, a), (_, b) = em[i], en[j]
        maps[s][a] = b
    return (Homomorphism("iso", m, n, maps),
            Homomorphism("iso_inv", n, m, {s: {b: a for a, b in t.items()}
                                           for s, t in maps.items()}))


def fingerprint(m: PartialStructure) -> tuple:
    """Isomorphism-invariant sorting key for deterministic merges."""
    sig = m.signature
    sizes = tuple(len(m.carrier(s)) for s in sig.sorts)
    return (sum(sizes), sizes,
            tuple(len(m.func_table(f.name)) for f in sig.functions),
            tuple(len(m.rel_table(r.name)) for r in sig.relations), m.name)


# An iso index maps the certificate of each structure it holds to it, so
# "is this new up to iso?" is one dict lookup.

def _index(models) -> dict[tuple, PartialStructure]:
    return {canonical_form(m).certificate: m for m in models}


def _has_iso(index: dict, m: PartialStructure) -> bool:
    return canonical_form(m).certificate in index


def _add_new(index: dict, m: PartialStructure) -> bool:
    """Index m unless it is isomorphic to an indexed structure."""
    cert = canonical_form(m).certificate
    if cert in index:
        return False
    index[cert] = m
    return True


def iso_collapse(models) -> list[PartialStructure]:
    index: dict = {}
    return [m for m in sorted(models, key=fingerprint) if _add_new(index, m)]


@dataclass(frozen=True)
class ClosureReport:
    added: tuple[str, ...]
    skipped: tuple[str, ...] = ()   # candidates beyond the size cap


@dataclass
class ModelUniverse:
    theory: Theory
    models: list[PartialStructure]
    size_cap: int = 64
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size_cap < 0:
            raise BirkhoffError("size cap must be >= 0")
        for m in self.models:
            self._check_model(m)
        self.models = iso_collapse(self.models)
        self.index = _index(self.models)

    def _check_model(self, m: PartialStructure) -> None:
        report = is_model(m, self.theory)
        if not report.ok:
            raise BirkhoffError(
                f"'{m.name}' is not a model: {report.violations}")

    def contains_iso(self, m: PartialStructure) -> bool:
        return _has_iso(self.index, m)

    def grow(self, candidates) -> tuple[ModelUniverse, ClosureReport]:
        """The universe plus each (label, structure) candidate that is new up
        to iso, against the members and the earlier candidates; a candidate
        whose structure is None is reported as skipped.  The members are
        already pairwise non-isomorphic models, so only the added candidates
        are checked, and the members come out in `iso_collapse` order."""
        added, skipped = [], []
        new = list(self.models)
        index = dict(self.index)
        for label, m in candidates:
            if m is None:
                skipped.append(label)
            elif _add_new(index, m):
                self._check_model(m)
                new.append(m)
                added.append(label)
        grown = copy.copy(self)
        grown.models, grown.index = sorted(new, key=fingerprint), index
        return grown, ClosureReport(tuple(added), tuple(skipped))


def _products(sig, models, cap: int):
    """(label, product) for each combination of up to PRODUCT_ARITY members,
    the empty one included; the product is None when it would exceed the
    cap."""
    for k in range(PRODUCT_ARITY + 1):
        for combo in itertools.combinations_with_replacement(models, k):
            label = "x".join(m.name for m in combo) or "1"
            try:
                yield label, product(sig, list(combo), cap=cap)
            except SemanticsError:
                yield label, None


PRODUCT_ARITY = 2
SUBMODEL_ENUM_CAP = 14


def _closed_submodels(models):
    """("member|size", submodel, first) for each distinct closed subset of
    each member, in the order of `morphology.closed_submodels` under the
    member's automorphisms: the submodel is the one built for the first
    closed subset of its orbit, and `first` tells whether this subset is
    that one; (member, None, True) for a member too large to enumerate its
    subsets."""
    for b in models:
        if b.size() > SUBMODEL_ENUM_CAP:
            yield b.name, None, True
            continue
        for _, sub, first in closed_submodels(b, canonical_form(b).generators):
            yield f"{b.name}|{sub.size()}", sub, first


def close_P(universe: ModelUniverse) -> tuple[ModelUniverse, ClosureReport]:
    """Add products of up to PRODUCT_ARITY members (including the empty
    product); oversized products are skipped and reported."""
    return universe.grow(_products(universe.theory.signature, universe.models,
                                   universe.size_cap))


def close_Scl(universe: ModelUniverse) -> tuple[ModelUniverse, ClosureReport]:
    """Add every closed submodel of every member; members too large for
    subset enumeration are skipped and reported.  A closed submodel that
    an automorphism of its member maps onto an earlier one is isomorphic to
    it, so only the first of each orbit is a candidate."""
    return universe.grow((label, sub) for label, sub, first
                         in _closed_submodels(universe.models) if first)


def _retract_exists(m: PartialStructure, n: PartialStructure,
                    u_hom=None) -> bool:
    """Whether some morphism m -> n is a (U-)retraction."""
    if any(len(m.carrier(s)) < len(n.carrier(s)) for s in m.signature.sorts):
        return False
    if u_hom is None:
        # candidate sections are few; extend each to a retraction if possible
        for s in iter_homs(n, m, injective=True):
            forced = {x: {s.maps[x][b]: {b} for b in n.carrier(x)}
                      for x in n.signature.sorts}
            if exists_hom(m, n, restrict=forced) is not None:
                return True
        return False
    return any(is_retraction(u_hom(p)).ok for p in iter_homs(m, n))


def close_R(universe: ModelUniverse, pool,
            u_hom: Callable[[Homomorphism], Homomorphism] | None = None
            ) -> tuple[ModelUniverse, ClosureReport]:
    """Add pool members that are (U-)retracts of universe members."""
    return universe.grow(
        (n.name, n) for n in pool if not universe.contains_iso(n) and
        any(_retract_exists(m, n, u_hom) for m in universe.models))


@dataclass(frozen=True)
class HspReport:
    p_added: tuple[str, ...]
    s_added: tuple[str, ...]
    r_added: tuple[str, ...]
    skipped: tuple[str, ...]
    second_pass_stable: bool
    growth_witnesses: tuple[str, ...] = ()


def hsp_closure(universe: ModelUniverse, pool,
                u_hom=None) -> tuple[ModelUniverse, HspReport]:
    """One application of retracts after closed submodels after products; a
    second pass restricted to the pool is asserted to add nothing."""
    after_p, rp = close_P(universe)
    after_s, rs = close_Scl(after_p)
    after_r, rr = close_R(after_s, pool, u_hom)
    witnesses = _pool_growth_witnesses(after_r, rr.added, pool)
    report = HspReport(rp.added, rs.added, rr.added,
                       rp.skipped + rs.skipped, not witnesses, witnesses)
    return after_r, report


def _pool_growth_witnesses(closure: ModelUniverse, r_added,
                           pool) -> tuple[str, ...]:
    """Pool members outside the closure that one more operator application
    would reach as a small product or a closed submodel.  Only the members
    named in r_added, which the retract step added, have their closed
    submodels enumerated: any other member went through the submodel step
    or is a closed submodel of one that did.  No retract is searched:
    close_R found each missing pool member a (U-)retract of none of the
    members it started from, every member it added is a (U-)retract of one
    of those, and (U-)retractions compose (U is a functor), so the missing
    member is a (U-)retract of no closure member either."""
    missing = [n for n in pool if not closure.contains_iso(n)]
    if not missing:
        return ()
    max_pool = max(n.size() for n in pool)
    candidates = itertools.chain(
        (m for _, m in _products(closure.theory.signature, closure.models,
                                 max_pool)),
        (sub for _, sub, first in _closed_submodels(
            b for b in closure.models if b.name in r_added) if first))
    reached = _index(m for m in candidates if m is not None)
    return tuple(n.name for n in missing if _has_iso(reached, n))


# ---------------------------------------------------------------------------
# definability experiments

@dataclass(frozen=True)
class DefinabilityReport:
    class_size: int
    fixed_point: bool
    closure_failures: tuple[str, ...]     # pool members wrongly reachable
    pool_insufficiency: tuple[str, ...]   # closure left the pool (size cap)
    orthogonality_ok: bool
    orthogonality_failures: tuple[str, ...]
    orthogonality_skipped: tuple[str, ...] = ()  # truncated presentations

    @property
    def ok(self) -> bool:
        return self.fixed_point and self.orthogonality_ok


def definability_check(theory: Theory, judgments, pool, depth: int = 4,
                       size_cap: int = 64, u_hom=None) -> DefinabilityReport:
    """Check that the subclass of the pool defined by the judgments is an
    hsp fixed point, and that each judgment's orthogonality characterization
    agrees with validity on the whole pool.

    Intermediate closure members larger than the pool are judgment-checked
    and then dropped, with a note: failures are then reported as pool
    insufficiency, never as theorem violations.
    """
    judgments = tuple(judgments)
    pool = iso_collapse(pool)
    by_name = {}
    for m in pool:
        if m.name in by_name:
            raise BirkhoffError(f"duplicate pool model name '{m.name}'")
        by_name[m.name] = m
    max_pool = max((m.size() for m in pool), default=0)

    def violates(m):
        return not all(holds(m, j.sequent).ok for j in judgments)

    universe = ModelUniverse(theory, [m for m in pool if not violates(m)],
                             size_cap)
    failures: list[str] = []
    insufficiency: list[str] = []
    after_p, rp = close_P(universe)
    insufficiency.extend(f"product skipped: {x}" for x in rp.skipped)
    failures.extend(m.name for m in after_p.models if violates(m))

    def judged(candidates):
        """Judge every closed submodel, each orbit's first one with `holds`
        and the others by its verdict, since validity is invariant under
        isomorphism; keep the first ones no larger than the pool."""
        # A copy comes after its orbit's first subset in the scan of one
        # member, which holds the submodel meanwhile, so its id names it.
        verdicts: dict[int, bool] = {}
        for label, sub, first in candidates:
            if sub is not None:
                if first:
                    verdicts[id(sub)] = violates(sub)
                if verdicts[id(sub)]:
                    failures.append(label)
            if first and (sub is None or sub.size() <= max_pool):
                yield label, sub

    after_s, rs = after_p.grow(judged(_closed_submodels(after_p.models)))
    insufficiency.extend(f"submodels not enumerated: {x}" for x in rs.skipped)
    closed, rr = close_R(after_s, pool, u_hom)
    failures.extend(name for name in rr.added if violates(by_name[name]))
    witnesses = _pool_growth_witnesses(closed, rr.added, pool)
    failures.extend(w for w in witnesses if violates(by_name[w]))
    pool_index = _index(pool)
    insufficiency.extend(f"outside pool: {m.name}" for m in closed.models
                         if not _has_iso(pool_index, m))

    orth_failures, orth_skipped = [], []
    for j in judgments:
        seq = j.sequent
        p_prem = representing_model(theory, seq.context, seq.premise, depth)
        both = conj(list(conjuncts(seq.premise)) + list(conjuncts(seq.conclusion)))
        p_both = representing_model(theory, seq.context, both, depth)
        if not (p_prem.status.saturated and p_both.status.saturated):
            orth_skipped.append(f"{j.name}: presentation truncated at depth {depth}")
            continue
        e = repn_morphism(p_prem, p_both,
                          [Var(n) for n in p_prem.context.names]).hom
        for m in pool:
            if holds(m, seq).ok != orthogonal(m, e):
                orth_failures.append(f"{j.name} vs {m.name}")
    return DefinabilityReport(
        class_size=len(universe.models),
        fixed_point=not failures,
        closure_failures=tuple(failures),
        pool_insufficiency=tuple(insufficiency),
        orthogonality_ok=not orth_failures,
        orthogonality_failures=tuple(orth_failures),
        orthogonality_skipped=tuple(orth_skipped))


# ---------------------------------------------------------------------------
# finite categories and posetification

@dataclass(frozen=True)
class FiniteCategory:
    objects: tuple[str, ...]
    arrows: dict[str, tuple[str, str]]     # name -> (src, tgt)
    identities: dict[str, str]             # object -> identity arrow
    compose: dict[tuple[str, str], str]    # (g, f) -> g after f


def make_finite_category(objects, arrows, identities, compose) -> FiniteCategory:
    cat = FiniteCategory(tuple(objects), dict(arrows), dict(identities),
                         dict(compose))
    problems = _category_diagnostics(cat)
    if problems:
        raise BirkhoffError("bad category: " + "; ".join(problems))
    return cat


def _category_diagnostics(cat: FiniteCategory) -> list[str]:
    """Problems with `cat` as a category; the structural checks come first
    so the law checks below only index composites that exist."""
    out = [f"duplicate object '{o}'" for i, o in enumerate(cat.objects)
           if o in cat.objects[:i]]
    for name, (s, t) in cat.arrows.items():
        if s not in cat.objects or t not in cat.objects:
            out.append(f"arrow '{name}' has unknown endpoints")
    for obj in cat.objects:
        ident = cat.identities.get(obj)
        if ident is None or cat.arrows.get(ident) != (obj, obj):
            out.append(f"missing identity for '{obj}'")
    out += [f"identity for unknown object '{obj}'"
            for obj in cat.identities if obj not in cat.objects]
    for (g, f), h in cat.compose.items():
        ge, fe, he = (cat.arrows.get(x) for x in (g, f, h))
        if None in (ge, fe, he) or fe[1] != ge[0] or he != (fe[0], ge[1]):
            out.append(f"ill-typed composite ({g},{f})")
    for g, (gs, _) in cat.arrows.items():
        for f, (_, ft) in cat.arrows.items():
            if ft == gs and (g, f) not in cat.compose:
                out.append(f"missing composite ({g},{f})")
    if out:
        return out
    for f, (fs, ft) in cat.arrows.items():
        if cat.compose[(cat.identities[ft], f)] != f or \
                cat.compose[(f, cat.identities[fs])] != f:
            out.append(f"identity law fails at '{f}'")
            break
    for h, (hs, ht) in cat.arrows.items():
        for g, (gs, gt) in cat.arrows.items():
            for f, (fs, ft) in cat.arrows.items():
                if ft == gs and gt == hs:
                    if cat.compose[(cat.compose[(h, g)], f)] != \
                            cat.compose[(h, cat.compose[(g, f)])]:
                        out.append("associativity fails")
                        return out
    return out


def _hom_exists(cat: FiniteCategory, a: str, b: str) -> bool:
    return any(ep == (a, b) for ep in cat.arrows.values())


@dataclass(frozen=True)
class ComponentPoset:
    components: tuple[tuple[str, ...], ...]
    order: frozenset[tuple[int, int]]      # (i, j) means component i <= j


def posetification(cat: FiniteCategory) -> ComponentPoset:
    """Strongly connected components under mutual hom-existence, ordered by
    hom-existence."""
    objs = list(cat.objects)
    comps: list[list[str]] = []
    for a in objs:
        for comp in comps:
            b = comp[0]
            if _hom_exists(cat, a, b) and _hom_exists(cat, b, a):
                comp.append(a)
                break
        else:
            comps.append([a])
    components = tuple(tuple(c) for c in comps)
    order = set()
    for i, ci in enumerate(components):
        for j, cj in enumerate(components):
            if i == j or _hom_exists(cat, ci[0], cj[0]):
                order.add((i, j))
    return ComponentPoset(components, frozenset(order))


def acc_report(poset: ComponentPoset) -> int:
    """Length of the longest strict chain (finite posets always satisfy the
    ascending chain condition; this is the diagnostic size)."""
    n = len(poset.components)
    longest = {i: 1 for i in range(n)}
    changed = True
    while changed:
        changed = False
        for i, j in poset.order:
            if i != j and longest[j] < longest[i] + 1:
                longest[j] = longest[i] + 1
                changed = True
    return max(longest.values(), default=0)


def component_diagram(universe: ModelUniverse) -> FiniteCategory:
    """The thin hom-existence category of a universe: at most one arrow per
    ordered pair, present when some homomorphism exists."""
    models = sorted(universe.models, key=fingerprint)
    names: list[str] = []
    for m in models:
        name, k = m.name, 0
        while name in names:
            k += 1
            name = f"{m.name}_{k}"
        names.append(name)
    by_name = dict(zip(names, models))
    arrows: dict[str, tuple[str, str]] = {}
    exists: dict[tuple[str, str], str] = {}
    for a in names:
        for b in names:
            if a == b or exists_hom(by_name[a], by_name[b]) is not None:
                arrow = f"{a}__{b}"
                arrows[arrow] = (a, b)
                exists[(a, b)] = arrow
    identities = {a: exists[(a, a)] for a in names}
    compose = {}
    for g, (gs, gt) in arrows.items():
        for f, (fs, ft) in arrows.items():
            if ft == gs:
                compose[(g, f)] = exists[(fs, gt)]
    return make_finite_category(names, arrows, identities, compose)
