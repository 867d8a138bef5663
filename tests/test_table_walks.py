"""Differential tests for the routines that read structures and term graphs
by their table entries: `semantics.product`, `birkhoff.canonical_form` with
`find_iso` and `iso_collapse`, and `freemodel.TermGraph.lookup`.  Each is
compared with the version it replaced, kept here or in `conftest.py` as the
reference: products over the whole argument space, iso dedup by a colour
refinement that rescans every table per element, a hom search guarded by
`check_hom` on the inverse, and lookup through a compiled `term = y` clause
run on every class."""
import functools
import itertools
import math
import random

import pytest

from phl import birkhoff, freemodel
from phl.semantics import (
    UNDEF, PartialStructure, _pack, check_hom, enumerate_models, exists_hom,
    make_structure, product,
)
from phl.syntax import (
    App, Eq, Var, parse_formula_in_context, subterms,
)
from phl.theories import (
    cat_theory, mon_inv_theory, mon_theory, pos_theory, preorder_theory,
)

from conftest import (
    element_invariants, full_mask_scan, guarded_find_iso, inverse_is_hom, iso_key,
)

# ---------------------------------------------------------------------------
# the replaced routines


def reference_product(sig, factors, name=None):
    """The product over the whole argument space of every symbol, with no
    size cap."""
    factors = list(factors)
    carriers = {}
    elem_tuples = {}
    for s in sig.sorts:
        tuples = list(itertools.product(*(m.carrier(s) for m in factors)))
        elem_tuples[s] = tuples
        carriers[s] = tuple(_pack(t) for t in tuples)
    funcs = {}
    for f in sig.functions:
        table = {}
        arg_spaces = [elem_tuples[s] for s in f.arg_sorts]
        for args in itertools.product(*arg_spaces):
            vals = []
            for i, m in enumerate(factors):
                component = tuple(a[i] for a in args)
                v = m.func_table(f.name).get(component, UNDEF)
                if v is UNDEF:
                    break
                vals.append(v)
            else:
                table[tuple(_pack(a) for a in args)] = _pack(tuple(vals))
        funcs[f.name] = table
    rels = {}
    for r in sig.relations:
        rows = set()
        arg_spaces = [elem_tuples[s] for s in r.arg_sorts]
        for args in itertools.product(*arg_spaces):
            if all(tuple(a[i] for a in args) in factors[i].rel_table(r.name)
                   for i in range(len(factors))):
                rows.add(tuple(_pack(a) for a in args))
        rels[r.name] = frozenset(rows)
    pname = name or ("1" if not factors else "x".join(m.name for m in factors))
    return PartialStructure(pname, sig, carriers, funcs, rels)


def reference_element_invariants(m):
    """Three rounds of colour refinement that rescan every table entry for
    each element and compress colours in the order of their `repr` (not
    cached, so that it never shares the structure's cache)."""
    inv = {s: {a: (0,) for a in m.carrier(s)} for s in m.signature.sorts}
    for _ in range(3):
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
        palette = {c: i for i, c in enumerate(
            sorted({c for s in m.signature.sorts
                    for c in new[s].values()}, key=repr))}
        for s in m.signature.sorts:
            for a in m.carrier(s):
                new[s][a] = (palette[new[s][a]],)
        inv = new
    return inv


def reference_iso_key(m):
    inv = reference_element_invariants(m)
    return (tuple(len(m.carrier(s)) for s in m.signature.sorts),
            tuple(len(m.func_table(f.name)) for f in m.signature.functions),
            tuple(len(m.rel_table(r.name)) for r in m.signature.relations),
            tuple(tuple(sorted(inv[s].values())) for s in m.signature.sorts))


def reference_collapse(models):
    """`iso_collapse` as it ran on the reference colours: the first model of
    each iso class in fingerprint order, each compared only with the kept
    models of its reference key, and isomorphism decided by an injective
    hom that keeps reference colours."""
    keys = {id(m): reference_iso_key(m) for m in models}
    colours = {id(m): reference_element_invariants(m) for m in models}

    def iso(m, n):
        restrict = {s: {a: {b for b in n.carrier(s)
                            if colours[id(n)][s][b] == colours[id(m)][s][a]}
                        for a in m.carrier(s)} for s in m.signature.sorts}
        return exists_hom(m, n, restrict=restrict, injective=True) is not None

    kept = {}
    for m in sorted(models, key=birkhoff.fingerprint):
        same = kept.setdefault(keys[id(m)], [])
        if not any(iso(m, n) for n in same):
            same.append(m)
    return {id(m) for ms in kept.values() for m in ms}


def reference_lookup(g, term, env):
    """The class c at which the compiled clause `term = y` holds, tried on
    every class in turn."""
    return next((c for c, p in enumerate(g.parent) if p == c and
                 freemodel.holds_in_graph(g, Eq(term, Var("")), {**env, "": c})),
                None)


# ---------------------------------------------------------------------------
# seeded corpora

THEORIES = {"preord": preorder_theory, "mon_inv": mon_inv_theory,
            "pos": pos_theory, "cat": cat_theory}
PRODUCT_MAX = 10        # largest product built, so its subsets stay few


def relabelled(m, rng, name, shared=False):
    """A copy of m under a random renaming of its elements, with carriers
    listed in a random order.  The new names are `r0`, `r1`, ... in every
    sort when `shared`, and else start with the sort's name: the reference
    refinement matches an element by its name alone, so it gives a structure
    whose sorts share names other colours than its isomorphic copies."""
    sig = m.signature
    ren = {s: dict(zip(m.carrier(s), rng.sample(
        [f"{'r' if shared else s}{i}" for i in range(len(m.carrier(s)))],
        len(m.carrier(s)))))
        for s in sig.sorts}
    funcs = {f.name: {tuple(ren[t][a] for a, t in zip(args, f.arg_sorts)):
                      ren[f.result][v] for args, v in m.func_table(f.name).items()}
             for f in sig.functions}
    rels = {r.name: [tuple(ren[t][a] for a, t in zip(args, r.arg_sorts))
                     for args in m.rel_table(r.name)]
            for r in sig.relations}
    carriers = {s: rng.sample(list(ren[s].values()), len(ren[s]))
                for s in sig.sorts}
    return make_structure(name, sig, carriers, funcs, rels)


@functools.cache
def factor_pairs(name):
    """Seeded pairs of models up to size 3 whose product has at most
    PRODUCT_MAX elements."""
    theory = THEORIES[name]()
    rng = random.Random(f"pairs-{name}")
    models = enumerate_models(theory, 3)
    pairs = [(m, n) for m, n in itertools.combinations_with_replacement(models, 2)
             if sum(len(m.carrier(s)) * len(n.carrier(s))
                    for s in theory.signature.sorts) <= PRODUCT_MAX]
    return rng.sample(pairs, min(8, len(pairs)))


@functools.cache
def corpus(name):
    """Models up to size 3, relabelled copies of half of them, two-factor
    products and every closed submodel of those products."""
    theory = THEORIES[name]()
    rng = random.Random(f"corpus-{name}")
    models = list(enumerate_models(theory, 3))
    copies = [relabelled(m, rng, f"R{i}")
              for i, m in enumerate(rng.sample(models, len(models) // 2))]
    products = [product(theory.signature, pair) for pair in factor_pairs(name)]
    subs = [sub for p in products for _, sub in full_mask_scan(p)]
    return models + copies + products + subs


def groups(models, key):
    """The indices of `models`, grouped by equal key."""
    out = {}
    for i, m in enumerate(models):
        out.setdefault(key(m), set()).add(i)
    return {frozenset(g) for g in out.values()}


# ---------------------------------------------------------------------------
# the differential tests


@pytest.mark.parametrize("name", sorted(THEORIES))
class TestColourRefinement:
    def test_same_dedup_decisions(self, name):
        """Colour values are compressed in their own order, not their
        `repr`'s, so two structures that are not isomorphic may agree on one
        iso key and differ on the other; the kept models must not change."""
        models = corpus(name)
        assert len(models) > 100
        assert {id(m) for m in birkhoff.iso_collapse(models)} == \
            reference_collapse(models)

    def test_relabelled_copies_keep_key_and_colours(self, name):
        """Also when the copy's sorts share element names, which changed
        the reference's iso key for most cat models: the copy keeps the
        certificate, and find_iso's map keeps the oracle's colours."""
        rng = random.Random(f"copies-{name}")
        for m in corpus(name):
            n = relabelled(m, rng, "copy", shared=True)
            assert birkhoff.canonical_form(n).certificate == \
                birkhoff.canonical_form(m).certificate
            assert iso_key(n) == iso_key(m)
            pair = birkhoff.find_iso(m, n)
            assert pair is not None, m.name
            inv_m, inv_n = element_invariants(m), element_invariants(n)
            assert all(inv_n[s][pair[0].maps[s][a]] == c
                       for s, colours in inv_m.items() for a, c in colours.items())


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_inverse_guard_matches_check_hom(name):
    """find_iso's inverse, which no guard checks now, against check_hom,
    and find_iso against the guarded search it replaced: on pairs of equal
    carrier sizes, keys equal or not, and on pairs with equal keys,
    isomorphic or not.  Equal certificates must mean isomorphic."""
    rng = random.Random(f"inverse-{name}")
    models = corpus(name)
    by_size, by_key = {}, {}
    for m in models:
        by_size.setdefault(tuple(map(len, m.carriers.values())), []).append(m)
        by_key.setdefault(iso_key(m), []).append(m)
    pairs = [(m, rng.choice(by_size[tuple(map(len, m.carriers.values()))]))
             for m in rng.sample(models, 300)]
    same_key = [p for bucket in by_key.values()
                for p in itertools.combinations(bucket, 2)]
    outcomes = []
    for m, n in pairs + rng.sample(same_key, 400):
        got, want = birkhoff.find_iso(m, n), guarded_find_iso(m, n)
        assert (got is None) == (want is None), (m.name, n.name)
        assert (birkhoff.canonical_form(m).certificate ==
                birkhoff.canonical_form(n).certificate) == (got is not None)
        if got is not None:
            assert check_hom(got[0]) and check_hom(got[1])
            assert inverse_is_hom(got[0])
            assert got[1].maps == {s: {b: a for a, b in t.items()}
                                   for s, t in got[0].maps.items()}
        outcomes.append((got is None, iso_key(m) == iso_key(n)))
    assert (False, True) in outcomes
    assert (True, False) in outcomes
    if THEORIES[name]().signature.relations:
        assert (True, True) in outcomes, "every pair with equal keys is isomorphic"


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_product_matches_argument_space_product(name):
    sig = THEORIES[name]().signature
    models = enumerate_models(THEORIES[name](), 3)
    cases = [[], [models[-1]], *factor_pairs(name), models[:3]]
    for factors in cases:
        got = product(sig, factors)
        want = reference_product(sig, factors)
        assert (got.name, got.carriers, got.funcs, got.rels) == \
            (want.name, want.carriers, want.funcs, want.rels)


def test_product_corpus_has_partial_tables():
    """Some mon_inv and cat factor pairs above have partial tables, and so
    do their products."""
    for name, symbol in (("mon_inv", "inv"), ("cat", "comp")):
        sig = THEORIES[name]().signature
        arg_sorts = sig.function(symbol).arg_sorts
        assert any(len(p.func_table(symbol)) <
                   math.prod(len(p.carrier(s)) for s in arg_sorts)
                   for p in (product(sig, pair) for pair in factor_pairs(name)))


# (theory, presentation, depth, whether some probed term has no node)
PRESENTATIONS = [
    (pos_theory, "[x:*, y:*] leq(x,y)", 1, False),
    (mon_theory, "[x:*] mul(x,x) = e", 2, False),
    (mon_inv_theory, "[x:*] inv(x) = x", 2, False),
    (cat_theory, "[f:mor, g:mor] d(g) = c(f)", 3, True),
    (cat_theory, "[f:mor] true", 2, True),
]


@pytest.mark.parametrize("theory, text, depth, misses", PRESENTATIONS,
                         ids=[t for _, t, _, _ in PRESENTATIONS])
def test_lookup_matches_clause_scan(theory, text, depth, misses):
    """Every representative term, every symbol applied to representatives,
    and every symbol applied to those again, with all their subterms."""
    theory = theory()
    sig = theory.signature
    ctx, phi = parse_formula_in_context(text, sig)
    p = freemodel.representing_model(theory, ctx, phi, depth)
    g, env = p.graph, p.generic_env
    by_sort = {s: [p.reps[c] for c in cs] for s, cs in g.classes_by_sort().items()}

    def applied(pool):
        return [(f.result, App(f.name, args)) for f in sig.functions
                for args in itertools.product(*(pool[s] for s in f.arg_sorts))]

    once = applied(by_sort)
    twice_pool = {s: by_sort[s] + [t for r, t in once if r == s] for s in sig.sorts}
    terms = list(p.reps.values()) + [t for _, t in applied(twice_pool)]
    seen = {u for t in terms for u in subterms(t)}
    found = {u: g.lookup(u, env) for u in seen}
    assert found == {u: reference_lookup(g, u, env) for u in seen}
    assert set(found.values()) - {None}
    assert (None in found.values()) == misses
