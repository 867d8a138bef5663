import pytest
from hypothesis import strategies as st

from phl.semantics import Homomorphism, check_hom, exists_hom
from phl.syntax import App, Eq, RelApp, Var, conj, defined
from phl.theories import (
    cat_theory, chain_poset, mon_theory, pos_theory, zmod_monoid,
)


@pytest.fixture(scope="session")
def pos():
    return pos_theory()


@pytest.fixture(scope="session")
def mon():
    return mon_theory()


@pytest.fixture(scope="session")
def cat():
    return cat_theory()


@pytest.fixture(scope="session")
def chain2():
    return chain_poset(2)


@pytest.fixture(scope="session")
def chain3():
    return chain_poset(3)


@pytest.fixture(scope="session")
def z2():
    return zmod_monoid(2)


@pytest.fixture(scope="session")
def z4():
    return zmod_monoid(4)


# ---------------------------------------------------------------------------
# hypothesis strategies over single-sorted signatures

def terms_over(sig, ctx, max_leaves=4):
    """Strategy for raw terms over a single-sorted signature."""
    sort = sig.sorts[0]
    leaves = [Var(n) for n, s in ctx.vars if s == sort]
    leaves += [App(f.name, ()) for f in sig.functions if not f.arg_sorts]
    base = st.sampled_from(leaves)
    constructors = [f for f in sig.functions if f.arg_sorts]
    if not constructors:
        return base

    def extend(children):
        return st.one_of([
            st.builds(lambda *args, fname=f.name: App(fname, tuple(args)),
                      *[children] * len(f.arg_sorts))
            for f in constructors])

    return st.recursive(base, extend, max_leaves=max_leaves)


def formulas_over(sig, ctx, max_atoms=3):
    ts = terms_over(sig, ctx)
    atom_opts = [st.builds(Eq, ts, ts), st.builds(defined, ts)]
    for r in sig.relations:
        atom_opts.append(st.builds(
            lambda *args, rname=r.name: RelApp(rname, tuple(args)),
            *[ts] * len(r.arg_sorts)))
    atoms = st.one_of(atom_opts)
    return st.lists(atoms, min_size=0, max_size=max_atoms).map(conj)


# ---------------------------------------------------------------------------
# validity as a scan of every context tuple with the three-valued reader: the
# oracle for the compiled check behind semantics.holds

def reference_holds(m, seq):
    """The first context tuple where the premise reads true and the
    conclusion does not, each read afresh at every tuple."""
    from phl.semantics import (
        _NO_HOLES, HoldsResult, _reader, _slots, _tables, context_tuples,
    )
    from phl.syntax import flatten
    clause = flatten(seq.context.names, seq.premise, seq.conclusion)
    premise, conclusion = _reader(clause.premise), _reader(clause.conclusion)
    funcs, rels = _tables(m)
    for tup in context_tuples(m, seq.context):
        vals = _slots(clause, tup)
        if premise(vals, funcs, rels, _NO_HOLES, None) and \
                not conclusion(vals, funcs, rels, _NO_HOLES, None):
            return HoldsResult(False, tup)
    return HoldsResult(True)


# the hom search that rescans every table entry at every node: the oracle for
# semantics.iter_homs, check_hom and morphology.is_closed_mono

def partial_hom_ok(m, n, maps) -> bool:
    """Whether a partial element map m -> n preserves every table entry of m
    whose arguments it already maps."""
    for f in m.signature.functions:
        target = n.func_table(f.name)
        res = maps[f.result]
        for args, val in m.func_table(f.name).items():
            if all(a in maps[s] for a, s in zip(args, f.arg_sorts)):
                want = target.get(tuple(maps[s][a] for a, s in zip(args, f.arg_sorts)))
                if want is None or (val in res and res[val] != want):
                    return False
    for r in m.signature.relations:
        target = n.rel_table(r.name)
        for args in m.rel_table(r.name):
            if all(a in maps[s] for a, s in zip(args, r.arg_sorts)):
                if tuple(maps[s][a] for a, s in zip(args, r.arg_sorts)) not in target:
                    return False
    return True


def reference_iter_homs(m, n, restrict=None, injective=False):
    """iter_homs as it was before it read the structure's view: one
    partial_hom_ok call over the whole map at every search node."""
    if m.signature != n.signature:
        return
    todo = [(s, a) for s in m.signature.sorts for a in m.carrier(s)]
    if any(not n.carrier(s) for s, _ in todo):
        return
    maps = {s: {} for s in m.signature.sorts}
    count = 0

    def rec(i):
        nonlocal count
        if i == len(todo):
            count += 1
            yield Homomorphism(f"h{count - 1}", m, n,
                               {s: dict(t) for s, t in maps.items()})
            return
        s, a = todo[i]
        allowed = n.carrier(s)
        if restrict is not None:
            r = restrict.get(s, {}).get(a)
            if r is not None:
                allowed = [b for b in allowed if b in r]
        for b in allowed:
            if injective and b in maps[s].values():
                continue
            maps[s][a] = b
            if partial_hom_ok(m, n, maps):
                yield from rec(i + 1)
            del maps[s][a]

    yield from rec(0)


# ---------------------------------------------------------------------------
# find_iso as it was when it checked the inverse map with check_hom: the
# oracle for birkhoff._onto_entries

def inverse_is_hom(h) -> bool:
    """Whether the inverse of an injective hom is a hom, by check_hom."""
    return check_hom(Homomorphism("iso_inv", h.target, h.source,
                                  {s: {b: a for a, b in t.items()}
                                   for s, t in h.maps.items()}))


def guarded_find_iso(m, n):
    from phl import birkhoff
    if m.signature != n.signature or birkhoff.iso_key(m) != birkhoff.iso_key(n):
        return None
    inv_m = birkhoff._element_invariants(m)
    inv_n = birkhoff._element_invariants(n)
    restrict = {}
    for s in m.signature.sorts:
        same_colour = {}
        for b in n.carrier(s):
            same_colour.setdefault(inv_n[s][b], set()).add(b)
        restrict[s] = {a: same_colour[inv_m[s][a]] for a in m.carrier(s)}
    h = exists_hom(m, n, restrict=restrict, injective=True)
    if h is None or not inverse_is_hom(h):
        return None
    return h


def prove_saturation_first(theory, seq, depth=4, model_size=4, max_work=None):
    """prove as it was before the interleaved schedule: one saturation with
    the whole work budget, then the countermodel search."""
    from phl import prover
    from phl.freemodel import ModelPresentation, SaturationStatus, saturate
    from phl.semantics import formula_holds_at, interp_formula, iter_models
    if max_work is None:
        max_work = prover.DEFAULT_WORK_BUDGET
    g, saturated, exhausted, reached = saturate(
        theory, seq.context, seq.premise, depth, goal=seq.conclusion,
        max_work=max_work)
    if reached:
        return prover.Proved(tuple(g.trace), SaturationStatus(saturated, depth))
    if saturated:
        p = ModelPresentation(theory, seq.context, seq.premise,
                              SaturationStatus(True, depth), g)
        return prover.Refuted(p.structure, p.generic_tuple,
                              "generic tuple of the saturated term model")
    for m in iter_models(theory, model_size):
        for tup in sorted(interp_formula(m, seq.context, seq.premise)):
            if not formula_holds_at(m, seq.context, seq.conclusion, tup):
                return prover.Refuted(m, tup, "enumerated countermodel")
    cause = (f"work budget of {max_work} axiom instances exhausted"
             if exhausted else f"saturation truncated at depth {depth}")
    return prover.UnknownVerdict(f"{cause} and no countermodel with at most "
                                 f"{model_size} elements per sort")
