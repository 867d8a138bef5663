import pytest
from hypothesis import strategies as st

from phl.semantics import Homomorphism
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
