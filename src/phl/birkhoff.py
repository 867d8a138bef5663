"""Desk-scale variety laboratory: closure operators over finite universes of
finite models, definability experiments, and posetification diagnostics.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .freemodel import representing_model, repn_morphism
from .morphology import closed_submodel_generated, is_retraction, orthogonal
from .semantics import (
    Homomorphism, PartialStructure, SemanticsError, check_hom, enumerate_homs,
    exists_hom, holds, is_model, iter_homs, partial_hom_ok, product,
)
from .syntax import PhlError, Theory, conj, conjuncts


class BirkhoffError(PhlError):
    pass


# ---------------------------------------------------------------------------
# universes of models up to isomorphism

def _element_invariants(m: PartialStructure, rounds: int = 2) -> dict[str, dict[str, tuple]]:
    """Iteratively refined isomorphism-invariant colors per element (cached
    on the structure)."""
    cached = m.__dict__.get("_invariants")
    if cached is not None:
        return cached
    inv = _element_invariants_raw(m, rounds)
    object.__setattr__(m, "_invariants", inv)
    return inv


def _element_invariants_raw(m: PartialStructure, rounds: int) -> dict[str, dict[str, tuple]]:
    inv = {s: {a: (0,) for a in m.carrier(s)} for s in m.signature.sorts}
    for _ in range(rounds + 1):
        new = {s: {} for s in m.signature.sorts}
        for s in m.signature.sorts:
            for a in m.carrier(s):
                feats = []
                for f in m.signature.functions:
                    for args, val in sorted(m.func_table(f.name).items()):
                        positions = tuple(i for i, x in enumerate(args) if x == a)
                        if positions or val == a:
                            feats.append((f.name, positions, val == a,
                                          tuple(inv[t][x] for x, t in
                                                zip(args, f.arg_sorts)),
                                          inv[f.result][val]))
                for r in m.signature.relations:
                    for args in sorted(m.rel_table(r.name)):
                        positions = tuple(i for i, x in enumerate(args) if x == a)
                        if positions:
                            feats.append((r.name, positions,
                                          tuple(inv[t][x] for x, t in
                                                zip(args, r.arg_sorts))))
                new[s][a] = (inv[s][a], tuple(sorted(map(repr, feats))))
        # compress colors to ints canonically, so that isomorphic structures
        # get identical palettes
        palette = {c: i for i, c in enumerate(
            sorted({c for s in m.signature.sorts
                    for c in new[s].values()}, key=repr))}
        for s in m.signature.sorts:
            for a in m.carrier(s):
                new[s][a] = (palette[new[s][a]],)
        inv = new
    return inv


def iso_key(m: PartialStructure) -> tuple:
    """Isomorphism invariant: equal keys are necessary for isomorphism."""
    inv = _element_invariants(m)
    return (tuple(len(m.carrier(s)) for s in m.signature.sorts),
            tuple(len(m.func_table(f.name)) for f in m.signature.functions),
            tuple(len(m.rel_table(r.name)) for r in m.signature.relations),
            tuple(tuple(sorted(inv[s].values())) for s in m.signature.sorts))


def find_iso(m: PartialStructure, n: PartialStructure):
    """A pair of mutually inverse homomorphisms, by invariant-pruned
    backtracking; None when the structures are not isomorphic."""
    if m.signature != n.signature:
        return None
    if any(len(m.carrier(s)) != len(n.carrier(s)) for s in m.signature.sorts):
        return None
    if iso_key(m) != iso_key(n):
        return None
    inv_m = _element_invariants(m)
    inv_n = _element_invariants(n)
    todo = [(s, a) for s in m.signature.sorts for a in m.carrier(s)]
    assigned: dict[str, dict[str, str]] = {s: {} for s in m.signature.sorts}
    inverse: dict[str, dict[str, str]] = {s: {} for s in m.signature.sorts}

    def rec(i: int):
        if i == len(todo):
            return True
        s, a = todo[i]
        for b in n.carrier(s):
            if b in inverse[s] or inv_n[s][b] != inv_m[s][a]:
                continue
            assigned[s][a] = b
            inverse[s][b] = a
            if partial_hom_ok(m, n, assigned) and \
                    partial_hom_ok(n, m, inverse) and rec(i + 1):
                return True
            del assigned[s][a]
            del inverse[s][b]
        return False

    if not rec(0):
        return None
    h = Homomorphism("iso", m, n, {s: dict(t) for s, t in assigned.items()})
    hinv = Homomorphism("iso_inv", n, m, {s: dict(t) for s, t in inverse.items()})
    if not (check_hom(h) and check_hom(hinv)):
        return None
    return h, hinv


def fingerprint(m: PartialStructure) -> tuple:
    """Isomorphism-invariant sorting key for deterministic merges."""
    sizes = tuple(len(m.carrier(s)) for s in m.signature.sorts)
    fsizes = tuple(len(m.func_table(f.name)) for f in m.signature.functions)
    rsizes = tuple(len(m.rel_table(r.name)) for r in m.signature.relations)
    return (sum(sizes), sizes, fsizes, rsizes, m.name)


@dataclass
class ModelUniverse:
    theory: Theory
    models: list[PartialStructure]
    size_cap: int = 64

    def __post_init__(self):
        for m in self.models:
            report = is_model(m, self.theory)
            if not report.ok:
                raise BirkhoffError(
                    f"'{m.name}' is not a model: {report.violations}")
        self.models = iso_collapse(self.models)

    def contains_iso(self, m: PartialStructure) -> bool:
        return any(find_iso(m, n) for n in self.models)


def iso_collapse(models) -> list[PartialStructure]:
    out: list[PartialStructure] = []
    for m in sorted(models, key=fingerprint):
        if not any(find_iso(m, n) for n in out):
            out.append(m)
    return out


@dataclass(frozen=True)
class ClosureReport:
    added: tuple[str, ...]
    skipped: tuple[str, ...] = ()   # candidates beyond the size cap


def close_P(universe: ModelUniverse, arity_cap: int = 2) -> tuple[ModelUniverse, ClosureReport]:
    """Add products of members up to the arity cap (including the empty
    product); oversized products are skipped and reported."""
    sig = universe.theory.signature
    added, skipped = [], []
    new = list(universe.models)
    for k in range(arity_cap + 1):
        for combo in itertools.combinations_with_replacement(universe.models, k):
            try:
                p = product(sig, list(combo), cap=universe.size_cap)
            except SemanticsError:
                skipped.append("x".join(m.name for m in combo) or "1")
                continue
            if not any(find_iso(p, n) for n in new):
                new.append(p)
                added.append(p.name)
    return (ModelUniverse(universe.theory, new, universe.size_cap),
            ClosureReport(tuple(added), tuple(skipped)))


def _all_closed_submodels(b: PartialStructure):
    sig = b.signature
    per_sort = [list(b.carrier(s)) for s in sig.sorts]
    spaces = [list(itertools.product([False, True], repeat=len(e)))
              for e in per_sort]
    seen = set()
    for mask in itertools.product(*spaces):
        subset = {s: {a for a, keep in zip(per_sort[i], mask[i]) if keep}
                  for i, s in enumerate(sig.sorts)}
        sub, _ = closed_submodel_generated(b, subset)
        key = tuple(tuple(sub.carrier(s)) for s in sig.sorts)
        if key not in seen:
            seen.add(key)
            yield sub


SUBMODEL_ENUM_CAP = 14


def close_Scl(universe: ModelUniverse) -> tuple[ModelUniverse, ClosureReport]:
    """Add every closed submodel of every member; members too large for
    subset enumeration are skipped and reported."""
    added, skipped = [], []
    new = list(universe.models)
    for m in universe.models:
        if m.size() > SUBMODEL_ENUM_CAP:
            skipped.append(m.name)
            continue
        for sub in _all_closed_submodels(m):
            if not any(find_iso(sub, n) for n in new):
                new.append(sub)
                added.append(f"{m.name}|{sub.size()}")
    return (ModelUniverse(universe.theory, new, universe.size_cap),
            ClosureReport(tuple(added), tuple(skipped)))


def _retract_exists(m: PartialStructure, n: PartialStructure,
                    u_hom=None) -> bool:
    """Whether some morphism m -> n is a (U-)retraction."""
    if any(len(m.carrier(s)) < len(n.carrier(s)) for s in m.signature.sorts):
        return False
    if u_hom is None:
        # candidate sections are few; extend each to a retraction if possible
        for s in iter_homs(n, m):
            if any(len(set(s.maps[x].values())) != len(n.carrier(x))
                   for x in n.signature.sorts):
                continue
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
    added = []
    new = list(universe.models)
    for n in pool:
        if any(find_iso(n, m) for m in new):
            continue
        if any(_retract_exists(m, n, u_hom) for m in universe.models):
            new.append(n)
            added.append(n.name)
    return (ModelUniverse(universe.theory, new, universe.size_cap),
            ClosureReport(tuple(added)))


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
    witnesses = _pool_growth_witnesses(after_r, pool, arity_cap, u_hom)
    report = HspReport(rp.added, rs.added, rr.added,
                       rp.skipped + rs.skipped, not witnesses, witnesses)
    return after_r, report


def _pool_growth_witnesses(closure: ModelUniverse, pool, arity_cap: int,
                           u_hom) -> tuple[str, ...]:
    """Pool members outside the closure that one more operator application
    would reach: products kept small enough to matter, closed submodels of
    enumerable members, and retracts."""
    sig = closure.theory.signature
    missing = [n for n in pool if not closure.contains_iso(n)]
    if not missing:
        return ()
    max_pool = max(n.size() for n in pool)
    reachable: list[PartialStructure] = []
    for k in range(arity_cap + 1):
        for combo in itertools.combinations_with_replacement(closure.models, k):
            try:
                reachable.append(product(sig, list(combo), cap=max_pool + 1))
            except SemanticsError:
                continue
    for m in closure.models:
        if m.size() <= SUBMODEL_ENUM_CAP:
            reachable.extend(_all_closed_submodels(m))
    out = []
    for n in missing:
        hit = any(find_iso(n, r) for r in reachable if r.size() == n.size())
        if not hit:
            hit = any(_retract_exists(m, n, u_hom) for m in closure.models)
        if hit:
            out.append(n.name)
    return tuple(out)


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
    members = [m for m in pool
               if all(holds(m, j.sequent).ok for j in judgments)]
    universe = ModelUniverse(theory, members, size_cap)

    failures: list[str] = []
    insufficiency: list[str] = []

    def violates(m):
        return not all(holds(m, j.sequent).ok for j in judgments)

    after_p, rp = close_P(universe, arity_cap)
    insufficiency.extend(f"product skipped: {x}" for x in rp.skipped)
    for m in after_p.models:
        if violates(m):
            failures.append(m.name)

    retained = list(after_p.models)
    for m in after_p.models:
        if m.size() > SUBMODEL_ENUM_CAP:
            insufficiency.append(f"submodels not enumerated: {m.name}")
            continue
        for sub in _all_closed_submodels(m):
            if violates(sub):
                failures.append(f"{m.name}|{sub.size()}")
            if sub.size() > max_pool:
                continue
            if not any(find_iso(sub, x) for x in retained):
                retained.append(sub)
    after_s = ModelUniverse(theory, retained, size_cap)
    closed, rr = close_R(after_s, pool, u_hom)
    for name in rr.added:
        if violates(by_name[name]):
            failures.append(name)
    witnesses = _pool_growth_witnesses(closed, pool, arity_cap, u_hom)
    failures.extend(w for w in witnesses if violates(by_name[w]))
    for m in closed.models:
        if not any(find_iso(m, n) for n in pool):
            insufficiency.append(f"outside pool: {m.name}")

    orth_failures = []
    orth_skipped = []
    for j in judgments:
        seq = j.sequent
        p_prem = representing_model(theory, seq.context, seq.premise, depth)
        both = conj(list(conjuncts(seq.premise)) + list(conjuncts(seq.conclusion)))
        p_both = representing_model(theory, seq.context, both, depth)
        if not (p_prem.status.saturated and p_both.status.saturated):
            orth_skipped.append(f"{j.name}: presentation truncated at depth {depth}")
            continue
        e = repn_morphism(p_prem, p_both,
                          [v for v in _generic_vars(p_prem)]).hom
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


def _generic_vars(p):
    from .syntax import Var
    return [Var(n) for n in p.context.names]


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
    out = []
    for name, (s, t) in cat.arrows.items():
        if s not in cat.objects or t not in cat.objects:
            out.append(f"arrow '{name}' has unknown endpoints")
    for obj in cat.objects:
        ident = cat.identities.get(obj)
        if ident is None or cat.arrows.get(ident) != (obj, obj):
            out.append(f"missing identity for '{obj}'")
    if out:
        return out
    for g, (gs, gt) in cat.arrows.items():
        for f, (fs, ft) in cat.arrows.items():
            if ft == gs:
                h = cat.compose.get((g, f))
                if h is None:
                    out.append(f"missing composite ({g},{f})")
                elif cat.arrows.get(h) != (fs, gt):
                    out.append(f"ill-typed composite ({g},{f})")
    for f, (fs, ft) in cat.arrows.items():
        if cat.compose.get((cat.identities[ft], f)) != f or \
                cat.compose.get((f, cat.identities[fs])) != f:
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
    names = []
    seen = set()
    for m in models:
        base = m.name
        k = 0
        name = base
        while name in seen:
            k += 1
            name = f"{base}_{k}"
        seen.add(name)
        names.append(name)
    by_name = dict(zip(names, models))
    arrows: dict[str, tuple[str, str]] = {}
    exists: dict[tuple[str, str], str] = {}
    for a in names:
        for b in names:
            if a == b or enumerate_homs(by_name[a], by_name[b]):
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
