import itertools

import pytest
from hypothesis import strategies as st

from phl import semantics
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


@pytest.fixture
def built(monkeypatch):
    """The structures `semantics.enumerate_structures` yields during the
    test, in order; the test starts with an empty `enumerate_models`
    cache."""
    semantics._models_cached.cache_clear()
    real, out = semantics.enumerate_structures, []

    def counting(theory, sizes):
        for m in real(theory, sizes):
            out.append(m)
            yield m

    monkeypatch.setattr(semantics, "enumerate_structures", counting)
    return out


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
# iso dedup as it was before canonical forms: element colours from three
# rounds of refinement, an iso key, find_iso as an injective hom search
# restricted to same-colour elements with check_hom on the inverse as its
# final guard, and iso_collapse over key buckets.  The oracles for
# birkhoff.canonical_form, find_iso and iso_collapse

def element_invariants(m):
    """Iteratively refined isomorphism-invariant colours per element (cached
    on the structure), over the table entries of the structure's view.  Each
    of three rounds walks the entries once and gives every element an entry
    mentions the feature (symbol, positions of the element, colours at all
    positions)."""
    cached = m.__dict__.get("_oracle_invariants")
    if cached is not None:
        return cached
    elems = m.view.elems
    entries = m.view.funcs + m.view.rels
    color = [0] * len(elems)
    for _ in range(3):
        feats = [[] for _ in elems]
        for sym, ids in entries:
            colors = tuple(color[i] for i in ids)
            for e in set(ids):
                where = tuple(k for k, i in enumerate(ids) if i == e)
                feats[e].append((sym, where, colors))
        new = [(c, tuple(sorted(fs))) for c, fs in zip(color, feats)]
        palette = {c: i for i, c in enumerate(sorted(set(new)))}
        color = [palette[c] for c in new]
    inv = {s: {} for s in m.signature.sorts}
    for (s, a), c in zip(elems, color):
        inv[s][a] = c
    object.__setattr__(m, "_oracle_invariants", inv)
    return inv


def iso_key(m):
    """Isomorphism invariant: equal keys are necessary for isomorphism."""
    inv = element_invariants(m)
    return (tuple(len(m.carrier(s)) for s in m.signature.sorts),
            tuple(len(m.func_table(f.name)) for f in m.signature.functions),
            tuple(len(m.rel_table(r.name)) for r in m.signature.relations),
            tuple(tuple(sorted(inv[s].values())) for s in m.signature.sorts))


def same_colour(m, n):
    """For each element of m, the elements of n of its colour."""
    inv_m, inv_n = element_invariants(m), element_invariants(n)
    restrict = {}
    for s in m.signature.sorts:
        by_colour = {}
        for b in n.carrier(s):
            by_colour.setdefault(inv_n[s][b], set()).add(b)
        restrict[s] = {a: by_colour.get(inv_m[s][a], set()) for a in m.carrier(s)}
    return restrict


def inverse_is_hom(h) -> bool:
    """Whether the inverse of an injective hom is a hom, by check_hom."""
    return check_hom(Homomorphism("iso_inv", h.target, h.source,
                                  {s: {b: a for a, b in t.items()}
                                   for s, t in h.maps.items()}))


def guarded_find_iso(m, n):
    """An isomorphism m -> n as the first injective hom that keeps colours
    and whose inverse check_hom accepts, or None."""
    if m.signature != n.signature or iso_key(m) != iso_key(n):
        return None
    h = exists_hom(m, n, restrict=same_colour(m, n), injective=True)
    if h is None or not inverse_is_hom(h):
        return None
    return h


def oracle_iso_collapse(models):
    """The first model of each iso class in fingerprint order, each compared
    only with the kept models of its key."""
    from phl.birkhoff import fingerprint
    kept = {}
    out = []
    for m in sorted(models, key=fingerprint):
        bucket = kept.setdefault(iso_key(m), [])
        if all(guarded_find_iso(m, n) is None for n in bucket):
            bucket.append(m)
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# closed submodels as morphology.closed_submodels found them before it took
# automorphisms: the oracle for its orbit scan

def full_mask_scan(b):
    """(closed, submodel) for each distinct closed subset of b, at its first
    occurrence among the masks 0 .. 2^n - 1, each submodel built."""
    from phl.morphology import _ClosureIndex
    index = _ClosureIndex(b)
    seen = set()
    for mask in range(1 << len(index.bit)):
        closed = index.close(mask)
        if closed not in seen:
            seen.add(closed)
            yield closed, index.induced(closed)


def bit_loop_mask_permutation(perm):
    """morphology._mask_permutation as it was before its lookup tables:
    the image of a mask gathered one set bit at a time."""
    top = len(perm) - 1
    image = [1 << (top - perm[top - j]) for j in range(len(perm))]

    def apply(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= image[low.bit_length() - 1]
            mask ^= low
        return out
    return apply


# ---------------------------------------------------------------------------
# automorphism groups by brute force and by Schreier-Sims: the oracles for
# the generators of birkhoff.canonical_form

def brute_force_automorphisms(m) -> int:
    """The number of sort-preserving permutations of m's view that map its
    table entries onto themselves."""
    elems, view = m.view.elems, m.view
    entries = set(view.funcs + view.rels)
    blocks = [[i for i, (s, _) in enumerate(elems) if s == sort]
              for sort in m.signature.sorts]
    count = 0
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        perm = [0] * len(elems)
        for block, image in zip(blocks, images):
            for i, j in zip(block, image):
                perm[i] = j
        if {(sym, tuple(perm[i] for i in ids)) for sym, ids in entries} == entries:
            count += 1
    return count


def group_order(generators, n: int) -> int:
    """The order of the group of permutations of range(n) (g sends i to
    g[i]) that the generators generate, by deterministic Schreier-Sims with
    base 0, 1, ..., n - 1."""
    ident = tuple(range(n))

    def mul(p, q):                      # p after q
        return tuple(p[x] for x in q)

    def inverse(p):
        out = [0] * n
        for i, x in enumerate(p):
            out[x] = i
        return tuple(out)

    strong = [g for g in generators if g != ident]

    def level_gens(i):
        return [g for g in strong if all(g[b] == b for b in range(i))]

    def transversal(i):
        trans = {i: ident}
        todo = [i]
        gens = level_gens(i)
        for x in todo:
            for g in gens:
                y = g[x]
                if y not in trans:
                    trans[y] = mul(g, trans[x])
                    todo.append(y)
        return trans

    def sift(h, i):
        """h reduced through levels i, i + 1, ...: (residue, level where it
        stuck), or (identity, n)."""
        for j in range(i, n):
            t = transversal(j).get(h[j])
            if t is None:
                return h, j
            h = mul(inverse(t), h)
        return h, n

    i = n - 1
    while i >= 0:
        trans = transversal(i)
        for x, t in trans.items():
            for s in level_gens(i):
                h = mul(inverse(trans[s[x]]), mul(s, t))
                residue, j = sift(h, i + 1)
                if residue != ident:
                    strong.append(residue)
                    i = j + 1
                    break
            else:
                continue
            break
        i -= 1
    order = 1
    for i in range(n):
        order *= len(transversal(i))
    return order


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
