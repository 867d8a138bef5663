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
# universes of models up to isomorphism

def _element_invariants(m: PartialStructure) -> dict[str, dict[str, int]]:
    """Iteratively refined isomorphism-invariant colors per element (cached
    on the structure), over the table entries of the structure's view.  Each
    of three rounds walks the entries once and gives every element an entry
    mentions the feature (symbol, positions of the element, colors at all
    positions)."""
    cached = m.__dict__.get("_invariants")
    if cached is not None:
        return cached
    elems = m.view.elems
    entries = m.view.funcs + m.view.rels
    color = [0] * len(elems)
    for _ in range(3):
        feats: list[list] = [[] for _ in elems]
        for sym, ids in entries:
            colors = tuple(color[i] for i in ids)
            for e in set(ids):
                where = tuple(k for k, i in enumerate(ids) if i == e)
                feats[e].append((sym, where, colors))
        new = [(c, tuple(sorted(fs))) for c, fs in zip(color, feats)]
        # compress colors to ints canonically, so that isomorphic structures
        # get identical palettes
        palette = {c: i for i, c in enumerate(sorted(set(new)))}
        color = [palette[c] for c in new]
    inv: dict[str, dict[str, int]] = {s: {} for s in m.signature.sorts}
    for (s, a), c in zip(elems, color):
        inv[s][a] = c
    object.__setattr__(m, "_invariants", inv)
    return inv


def iso_key(m: PartialStructure) -> tuple:
    """Isomorphism invariant: equal keys are necessary for isomorphism
    (cached on the structure)."""
    key = m.__dict__.get("_iso_key")
    if key is None:
        inv = _element_invariants(m)
        key = (tuple(len(m.carrier(s)) for s in m.signature.sorts),
               tuple(len(m.func_table(f.name)) for f in m.signature.functions),
               tuple(len(m.rel_table(r.name)) for r in m.signature.relations),
               tuple(tuple(sorted(inv[s].values())) for s in m.signature.sorts))
        object.__setattr__(m, "_iso_key", key)
    return key


def find_iso(m: PartialStructure, n: PartialStructure):
    """A pair of mutually inverse homomorphisms, found as an injective hom
    m -> n sending each element to one of the same invariant colour; None
    when the structures are not isomorphic.

    Only the forward map is checked as it grows.  Equal iso keys mean equal
    carrier and table sizes, so an injective hom m -> n is onto every carrier
    and sends the entries of each table of m onto those of n: its inverse is
    a hom as well.  The final check, `_onto_entries`, guards that argument."""
    if m.signature != n.signature or iso_key(m) != iso_key(n):
        return None
    inv_m = _element_invariants(m)
    inv_n = _element_invariants(n)
    restrict = {}
    for s in m.signature.sorts:
        same_colour: dict[tuple, set[str]] = {}
        for b in n.carrier(s):
            same_colour.setdefault(inv_n[s][b], set()).add(b)
        restrict[s] = {a: same_colour[inv_m[s][a]] for a in m.carrier(s)}
    h = exists_hom(m, n, restrict=restrict, injective=True)
    if h is None or not _onto_entries(h):
        return None
    hinv = Homomorphism("iso_inv", n, m, {s: {b: a for a, b in t.items()}
                                          for s, t in h.maps.items()})
    return Homomorphism("iso", m, n, h.maps), hinv


def _onto_entries(h: Homomorphism) -> bool:
    """Whether an injective hom h: m -> n is onto the elements of n and every
    table entry of n's view is the image under h of an entry of m's: exactly
    when the inverse of h is a hom n -> m."""
    vm, vn = h.source.view, h.target.view
    number = {e: i for i, e in enumerate(vn.elems)}
    image = [number[(s, h.maps[s][a])] for s, a in vm.elems]
    if len(set(image)) != len(vn.elems):
        return False

    def images(entries):
        return {(name, tuple(image[i] for i in args)) for name, args in entries}

    return images(vm.funcs).issuperset(vn.funcs) and \
        images(vm.rels).issuperset(vn.rels)


def fingerprint(m: PartialStructure) -> tuple:
    """Isomorphism-invariant sorting key for deterministic merges."""
    sizes, fsizes, rsizes, _ = iso_key(m)
    return (sum(sizes), sizes, fsizes, rsizes, m.name)


# An iso index maps iso_key to the structures with that key.  Every test of
# "is this new up to iso?" goes through one, so find_iso only ever compares
# structures whose keys agree.

def _index(models) -> dict[tuple, list[PartialStructure]]:
    index: dict[tuple, list[PartialStructure]] = {}
    for m in models:
        index.setdefault(iso_key(m), []).append(m)
    return index


def _has_iso(index: dict, m: PartialStructure) -> bool:
    for n in index.get(iso_key(m), ()):
        if find_iso(m, n) is not None:
            return True
    return False


def _add_new(index: dict, m: PartialStructure) -> bool:
    """Index m unless it is isomorphic to an indexed structure."""
    if _has_iso(index, m):
        return False
    index.setdefault(iso_key(m), []).append(m)
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
        index = _index(new)
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


def _products(sig, models, arity_cap: int, cap: int):
    """(label, product) for each combination of up to arity_cap members, the
    empty one included; the product is None when it would exceed the cap."""
    for k in range(arity_cap + 1):
        for combo in itertools.combinations_with_replacement(models, k):
            label = "x".join(m.name for m in combo) or "1"
            try:
                yield label, product(sig, list(combo), cap=cap)
            except SemanticsError:
                yield label, None


SUBMODEL_ENUM_CAP = 14


def _closed_submodels(models):
    """("member|size", closed submodel) for each distinct closed submodel of
    each member, in the order of `morphology.closed_submodels`; (member,
    None) for a member too large to enumerate its subsets."""
    for b in models:
        if b.size() > SUBMODEL_ENUM_CAP:
            yield b.name, None
            continue
        for sub in closed_submodels(b):
            yield f"{b.name}|{sub.size()}", sub


def close_P(universe: ModelUniverse, arity_cap: int = 2) -> tuple[ModelUniverse, ClosureReport]:
    """Add products of members up to the arity cap (including the empty
    product); oversized products are skipped and reported."""
    return universe.grow(_products(universe.theory.signature, universe.models,
                                   arity_cap, universe.size_cap))


def close_Scl(universe: ModelUniverse) -> tuple[ModelUniverse, ClosureReport]:
    """Add every closed submodel of every member; members too large for
    subset enumeration are skipped and reported."""
    return universe.grow(_closed_submodels(universe.models))


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


def hsp_closure(universe: ModelUniverse, pool, arity_cap: int = 2,
                u_hom=None) -> tuple[ModelUniverse, HspReport]:
    """One application of retracts after closed submodels after products; a
    second pass restricted to the pool is asserted to add nothing."""
    after_p, rp = close_P(universe, arity_cap)
    after_s, rs = close_Scl(after_p)
    after_r, rr = close_R(after_s, pool, u_hom)
    witnesses = _pool_growth_witnesses(after_r, rr.added, pool, arity_cap)
    report = HspReport(rp.added, rs.added, rr.added,
                       rp.skipped + rs.skipped, not witnesses, witnesses)
    return after_r, report


def _pool_growth_witnesses(closure: ModelUniverse, r_added, pool,
                           arity_cap: int) -> tuple[str, ...]:
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
        _products(closure.theory.signature, closure.models, arity_cap, max_pool),
        _closed_submodels(m for m in closure.models if m.name in r_added))
    reached = _index(m for _, m in candidates if m is not None)
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
                       arity_cap: int = 2, size_cap: int = 64,
                       u_hom=None) -> DefinabilityReport:
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
    after_p, rp = close_P(universe, arity_cap)
    insufficiency.extend(f"product skipped: {x}" for x in rp.skipped)
    failures.extend(m.name for m in after_p.models if violates(m))

    def judged(candidates):
        """Judge every closed submodel; keep those no larger than the pool."""
        for label, sub in candidates:
            if sub is not None and violates(sub):
                failures.append(label)
            if sub is None or sub.size() <= max_pool:
                yield label, sub

    after_s, rs = after_p.grow(judged(_closed_submodels(after_p.models)))
    insufficiency.extend(f"submodels not enumerated: {x}" for x in rs.skipped)
    closed, rr = close_R(after_s, pool, u_hom)
    failures.extend(name for name in rr.added if violates(by_name[name]))
    witnesses = _pool_growth_witnesses(closed, rr.added, pool, arity_cap)
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
