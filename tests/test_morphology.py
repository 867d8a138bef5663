import itertools
import random

import pytest

from phl.birkhoff import SUBMODEL_ENUM_CAP, _closed_submodels
from phl.freemodel import representing_model, repn_morphism
from phl.morphology import (
    MorphologyError, _mask_permutation, closed_submodel_generated,
    diagonal_fillers, factorize, is_closed_mono, is_dense, is_injective,
    is_retraction, is_surjective, is_U_retraction, orthogonal,
)
from phl.semantics import (
    Homomorphism, PartialStructure, check_hom, compose_homs, enumerate_homs,
    enumerate_models, holds, hom_image, identity_hom, is_model, iter_homs,
    make_structure, product,
)
from phl.syntax import parse_formula_in_context, parse_sequent
from phl.theories import (
    antichain_poset, cat_theory, chain_poset, cycle_preorder, mon_inv_theory,
    mon_theory, pos_theory, preorder_theory, set_theory, zmod_monoid,
)
from phl.translation import identity_morphism, make_theory_morphism, U_rho_hom

from conftest import bit_loop_mask_permutation, guarded_find_iso, partial_hom_ok
from test_semantics import hom_corpus_with_constructions


def incl(small, big, name="i"):
    maps = {s: {a: a for a in small.carrier(s)}
            for s in small.signature.sorts}
    return Homomorphism(name, small, big, maps)


class TestClosedMono:
    def test_submonoid_0_2_closed(self, mon, z4):
        sub, i = closed_submodel_generated(z4, {"*": {"0", "2"}})
        assert set(sub.carrier("*")) == {"0", "2"}
        assert is_closed_mono(i)

    def test_discrete_suborder_not_closed(self, pos, chain2):
        disc = antichain_poset(2)
        j = incl(disc, chain2)
        assert check_hom(j)
        assert not is_closed_mono(j)

    def test_identity_closed(self, chain2):
        assert is_closed_mono(identity_hom(chain2))

    def test_non_mono_rejected(self, chain2):
        h = Homomorphism("c", chain2, chain2, {"*": {"a": "b", "b": "b"}})
        with pytest.raises(MorphologyError):
            is_closed_mono(h)


def loop_check_hom(h):
    """check_hom as a loop over every table entry of the source."""
    m, n = h.source, h.target
    if m.signature != n.signature:
        return False
    for s in m.signature.sorts:
        table = h.maps.get(s, {})
        if set(table) != set(m.carrier(s)):
            return False
        if not set(table.values()) <= set(n.carrier(s)):
            return False
    for f in m.signature.functions:
        for args, val in m.func_table(f.name).items():
            im = tuple(h.maps[s][a] for s, a in zip(f.arg_sorts, args))
            want = n.func_table(f.name).get(im)
            if want is None or want != h.maps[f.result][val]:
                return False
    for r in m.signature.relations:
        for args in m.rel_table(r.name):
            im = tuple(h.maps[s][a] for s, a in zip(r.arg_sorts, args))
            if im not in n.rel_table(r.name):
                return False
    return True


def loop_is_closed_mono(h):
    """is_closed_mono as a loop over every argument tuple of the source."""
    if not loop_check_hom(h):
        raise MorphologyError("not a homomorphism")
    if not is_injective(h):
        raise MorphologyError("not a monomorphism")
    m, n = h.source, h.target
    for f in m.signature.functions:
        for args in itertools.product(*(m.carrier(s) for s in f.arg_sorts)):
            im = tuple(h.maps[s][a] for s, a in zip(f.arg_sorts, args))
            val = n.func_table(f.name).get(im)
            if val is None:
                continue
            own = m.func_table(f.name).get(args)
            if own is None or h.maps[f.result][own] != val:
                return False
    for r in m.signature.relations:
        for args in itertools.product(*(m.carrier(s) for s in r.arg_sorts)):
            im = tuple(h.maps[s][a] for s, a in zip(r.arg_sorts, args))
            if im in n.rel_table(r.name) and args not in m.rel_table(r.name):
                return False
    return True


def with_partial_tables(models):
    """The models, and for each table entry of each model of size at most 2
    a copy with that one entry dropped: partial structures that are often
    not models."""
    for m in models:
        yield m
        if m.size() > 2:
            continue
        for f in m.signature.functions:
            for args in sorted(m.func_table(f.name)):
                funcs = {g: dict(t) for g, t in m.funcs.items()}
                del funcs[f.name][args]
                yield make_structure(f"{m.name}-{f.name}", m.signature,
                                     m.carriers, funcs, m.rels)
        for r in m.signature.relations:
            for args in sorted(m.rel_table(r.name)):
                rels = dict(m.rels)
                rels[r.name] = m.rel_table(r.name) - {args}
                yield make_structure(f"{m.name}-{r.name}", m.signature,
                                     m.carriers, m.funcs, rels)


def element_maps(m, n):
    """Every sort-respecting map between the carriers of m and n."""
    sorts = m.signature.sorts
    spaces = [itertools.product(n.carrier(s), repeat=len(m.carrier(s)))
              for s in sorts]
    for images in itertools.product(*spaces):
        yield Homomorphism("h", m, n, {
            s: dict(zip(m.carrier(s), img)) for s, img in zip(sorts, images)})


class TestAgainstLoopOracles:
    """check_hom and is_closed_mono run the hom search with every element
    pinned; they must agree with the table loops on every element map
    between small structures, partial ones included."""

    def families(self):
        yield list(enumerate_models(pos_theory(), 2))
        mon = mon_theory()
        yield list(enumerate_models(mon, 2)) + [zmod_monoid(2), zmod_monoid(4)]
        yield list(enumerate_models(cat_theory(), 1))
        yield list(enumerate_models(mon_inv_theory(), 2))

    def test_every_element_map(self):
        maps = homs = closed = 0
        for family in self.families():
            structures = list(with_partial_tables(family))
            for m in structures:
                for n in structures:
                    for h in element_maps(m, n):
                        maps += 1
                        want = loop_check_hom(h)
                        assert check_hom(h) == want
                        if not (want and is_injective(h)):
                            with pytest.raises(MorphologyError):
                                is_closed_mono(h)
                            continue
                        homs += 1
                        got = is_closed_mono(h)
                        assert got == loop_is_closed_mono(h)
                        closed += got
        assert maps > homs > closed > 0

    def test_sort_missing_from_maps(self):
        cat = cat_theory()
        empty = make_structure("empty", cat.signature, {})
        h = Homomorphism("h", empty, empty, {"ob": {}})
        assert check_hom(h) and loop_check_hom(h)


def induced_substructure(m, keep):
    """The substructure of m on the (sort, element) pairs in keep, with the
    table entries that lie inside it; it need not be closed in m."""
    sig = m.signature

    def inside(sorts, elems):
        return all((s, a) in keep for s, a in zip(sorts, elems))

    carriers = {s: [a for a in m.carrier(s) if (s, a) in keep] for s in sig.sorts}
    funcs = {f.name: {args: val for args, val in m.func_table(f.name).items()
                      if inside((*f.arg_sorts, f.result), (*args, val))}
             for f in sig.functions}
    rels = {r.name: {args for args in m.rel_table(r.name)
                     if inside(r.arg_sorts, args)} for r in sig.relations}
    return make_structure(f"{m.name}_part", sig, carriers, funcs, rels)


def random_element_map(rng, m, n):
    """A sort-respecting map from m to n picked at random, or None when some
    sort of m has elements and none in n."""
    sorts = m.signature.sorts
    if any(m.carrier(s) and not n.carrier(s) for s in sorts):
        return None
    return Homomorphism("r", m, n, {s: {a: rng.choice(n.carrier(s))
                                        for a in m.carrier(s)} for s in sorts})


class TestRandomMapsAgainstReferences:
    """On random element maps between the structures of the hom-search
    corpora (mostly not homs), their first injective homs, and inclusions
    of induced substructures that need not be closed, check_hom agrees with
    the table loop and is_closed_mono with the argument-tuple loop and with
    partial_hom_ok on the inverse map."""

    @pytest.mark.parametrize("name", ["pos", "preord", "mon", "cat"])
    def test_random_maps(self, name):
        rng = random.Random(name)
        models = hom_corpus_with_constructions(name)
        cases = []
        for b in rng.sample(models, 10):
            keep = {(s, a) for s in b.signature.sorts for a in b.carrier(s)
                    if rng.random() < 0.6}
            cases.append(incl(induced_substructure(b, keep), b))
        for _ in range(300):
            m, n = rng.choice(models), rng.choice(models)
            cases.append(random_element_map(rng, m, n))
            cases += itertools.islice(iter_homs(m, n, injective=True), 2)
        tally = {"non-hom": 0, "not closed": 0, True: 0, False: 0}
        for h in filter(None, cases):
            want = loop_check_hom(h)
            assert check_hom(h) == want, h.maps
            if not want:
                tally["non-hom"] += 1
            if not (want and is_injective(h)):
                continue
            inverse = {s: {b: a for a, b in t.items()} for s, t in h.maps.items()}
            got = is_closed_mono(h)
            assert got == loop_is_closed_mono(h) == \
                partial_hom_ok(h.target, h.source, inverse), h.maps
            tally[got] += 1
            image = hom_image(h)
            sub, _ = closed_submodel_generated(h.target, image)
            tally["not closed"] += sub.size() > sum(map(len, image.values()))
        assert tally["non-hom"] and tally[True] and tally[False], tally
        assert tally["not closed"] or not models[0].signature.functions, tally


class TestGeneratedSubmodel:
    def test_z4_generated_by_2(self, z4):
        sub, i = closed_submodel_generated(z4, {"*": {"2"}})
        assert set(sub.carrier("*")) == {"0", "2"}
        assert is_closed_mono(i)

    def test_empty_generates_constants(self, z4):
        sub, _ = closed_submodel_generated(z4, {"*": set()})
        assert set(sub.carrier("*")) == {"0"}

    def test_full_carrier(self, z4):
        sub, _ = closed_submodel_generated(z4, {"*": set(z4.carrier("*"))})
        assert sub.carriers == z4.carriers
        assert sub.funcs == z4.funcs

    def test_minimality(self, z4, mon):
        # any closed submodel containing {2} contains the generated one
        sub, _ = closed_submodel_generated(z4, {"*": {"2"}})
        for mask in itertools.product([False, True], repeat=4):
            subset = {e for e, keep in zip(z4.carrier("*"), mask) if keep}
            if "2" not in subset:
                continue
            cand, j = closed_submodel_generated(z4, {"*": subset})
            if set(cand.carrier("*")) == subset:  # subset already closed
                assert subset >= set(sub.carrier("*"))


def oracle_closed_submodel_generated(b, subset):
    """The name-based fixpoint that the bitmask closure replaced: rescan
    every function table until no value is added."""
    sig = b.signature
    current = {s: set(subset.get(s, set())) for s in sig.sorts}
    for s, elems in current.items():
        bad = elems - set(b.carrier(s))
        if bad:
            raise MorphologyError(f"subset contains foreign elements {sorted(bad)}")
    changed = True
    while changed:
        changed = False
        for f in sig.functions:
            for args, val in b.func_table(f.name).items():
                if all(a in current[s] for a, s in zip(args, f.arg_sorts)):
                    if val not in current[f.result]:
                        current[f.result].add(val)
                        changed = True
    carriers = {s: tuple(a for a in b.carrier(s) if a in current[s])
                for s in sig.sorts}
    funcs = {}
    for f in sig.functions:
        funcs[f.name] = {args: val for args, val in b.func_table(f.name).items()
                         if all(a in current[s] for a, s in zip(args, f.arg_sorts))}
    rels = {}
    for r in sig.relations:
        rels[r.name] = frozenset(
            args for args in b.rel_table(r.name)
            if all(a in current[s] for a, s in zip(args, r.arg_sorts)))
    return PartialStructure(f"{b.name}_sub", sig, carriers, funcs, rels)


def oracle_closed_submodels(models):
    """The subset scan that `closed_submodels` replaced: close every subset
    of every member by name and keep the first copy of each carrier."""
    for b in models:
        if b.size() > SUBMODEL_ENUM_CAP:
            yield b.name, None
            continue
        sorts = b.signature.sorts
        per_sort = [list(b.carrier(s)) for s in sorts]
        spaces = [list(itertools.product([False, True], repeat=len(e)))
                  for e in per_sort]
        seen = set()
        for mask in itertools.product(*spaces):
            subset = {s: {a for a, keep in zip(per_sort[i], mask[i]) if keep}
                      for i, s in enumerate(sorts)}
            sub = oracle_closed_submodel_generated(b, subset)
            key = tuple(tuple(sub.carrier(s)) for s in sorts)
            if key not in seen:
                seen.add(key)
                yield f"{b.name}|{sub.size()}", sub


def structure_layout(m):
    """Everything of m that printing or hashing it can see, tables in order."""
    if m is None:
        return None
    return (m.name, m.carriers,
            [(f, list(t.items())) for f, t in m.funcs.items()],
            [(r, sorted(t)) for r, t in m.rels.items()])


def seeded_members():
    """Seeded samples of the models of pos, preord, mon, mon_inv (a
    constant, so the closure of nothing is not empty) and cat (two sorts),
    partial copies of the small ones, a few products, an oversized member
    and the empty structure of each signature."""
    rng = random.Random(2024)
    for theory, size in ((pos_theory(), 3), (preorder_theory(), 3),
                         (mon_theory(), 3), (mon_inv_theory(), 3),
                         (cat_theory(), 3)):
        models = list(enumerate_models(theory, size))
        picked = rng.sample(models, 6)
        yield theory.name, [make_structure("empty", theory.signature, {})] + \
            list(with_partial_tables(picked)) + \
            [product(theory.signature, rng.sample(models, 2), name="prod")]
    yield "big", [zmod_monoid(4), product(mon_theory().signature,
                                          [zmod_monoid(2), zmod_monoid(4)]),
                  product(pos_theory().signature, [chain_poset(4)] * 2)]


class TestClosedSubmodelsAgainstSubsetScan:
    """The bitmask closure must give what the per-subset name-based scan
    gave: the same closed submodels, in the same order, with the same
    tables in the same order.  Under the member's automorphisms only the
    first closed submodel of each orbit is built; each later one is given
    as that first one, which must be isomorphic to it."""

    @pytest.mark.parametrize("family", list(seeded_members()),
                             ids=lambda f: f[0])
    def test_same_sequence(self, family):
        _, members = family
        want = list(oracle_closed_submodels(members))
        got = list(_closed_submodels(members))
        assert [label for label, _, _ in got] == [label for label, _ in want]
        built = set()
        for (label, sub, first), (_, full) in zip(got, want):
            if first:
                assert structure_layout(sub) == structure_layout(full)
                built.add(id(sub))
            else:
                assert id(sub) in built and guarded_find_iso(full, sub), label
        assert any(sub is not None for _, sub, _ in got)

    @pytest.mark.parametrize("n", range(1, SUBMODEL_ENUM_CAP + 1))
    def test_mask_permutation_matches_bit_loop(self, n):
        """The lookup tables give the bit loop's image of every mask, for
        up to 8 elements (the low-byte table alone) and beyond (both)."""
        rng = random.Random(n)
        for _ in range(3):
            perm = rng.sample(range(n), n)
            got, want = _mask_permutation(perm), bit_loop_mask_permutation(perm)
            assert [got(mask) for mask in range(1 << n)] == \
                [want(mask) for mask in range(1 << n)], perm

    def test_generated_matches_oracle_on_random_subsets(self):
        rng = random.Random(7)
        for _, members in seeded_members():
            for b in members:
                elems = [(s, a) for s in b.signature.sorts for a in b.carrier(s)]
                for _ in range(8):
                    subset = {s: set() for s in b.signature.sorts}
                    for s, a in elems:
                        if rng.random() < 0.4:
                            subset[s].add(a)
                    sub, i = closed_submodel_generated(b, subset)
                    assert structure_layout(sub) == structure_layout(
                        oracle_closed_submodel_generated(b, subset))
                    assert i.maps == {s: {a: a for a in sub.carrier(s)}
                                      for s in b.signature.sorts}

    def test_foreign_element_raises(self, z4):
        with pytest.raises(MorphologyError, match=r"foreign elements \['9'\]"):
            closed_submodel_generated(z4, {"*": {"1", "9"}})

    def test_unknown_sort_raises(self, z4):
        with pytest.raises(MorphologyError, match=r"unknown sorts \['nosort'\]"):
            closed_submodel_generated(z4, {"nosort": {"a"}})


class TestDense:
    def test_generating_inclusion_dense(self, mon, z2):
        one = make_structure("one", mon.signature, {"*": ("1",)})
        # bare element 1 inside Z/2: no tables on the source
        h = Homomorphism("j", one, z2, {"*": {"1": "1"}})
        assert check_hom(h)
        assert is_dense(h)

    def test_surjections_dense_for_relational(self, pos, chain2):
        pt = chain_poset(1)
        h = Homomorphism("c", chain2, pt, {"*": {"a": "a", "b": "a"}})
        assert is_dense(h)

    def test_proper_closed_inclusion_not_dense(self, z4):
        sub, i = closed_submodel_generated(z4, {"*": {"2"}})
        assert not is_dense(i)


class TestFactorize:
    def test_identity(self, chain2):
        fr = factorize(identity_hom(chain2))
        assert fr.mid.carriers == chain2.carriers
        assert is_dense(fr.dense) and is_closed_mono(fr.closed_mono)

    def test_generating_element(self, mon, z2):
        one = make_structure("one", mon.signature, {"*": ("1",)})
        h = Homomorphism("j", one, z2, {"*": {"1": "1"}})
        fr = factorize(h)
        assert set(fr.mid.carrier("*")) == {"0", "1"}  # dense onto Z/2

    def test_constant_map(self, chain2):
        h = Homomorphism("cb", chain2, chain2, {"*": {"a": "b", "b": "b"}})
        fr = factorize(h)
        assert set(fr.mid.carrier("*")) == {"b"}
        assert compose_homs(fr.closed_mono, fr.dense).maps == h.maps

    def test_random_homs_compose(self, pos, mon):
        for theory, k in ((pos, 3), (mon, 3)):
            models = list(enumerate_models(theory, 2))
            count = 0
            for m in models:
                for n in models:
                    for h in enumerate_homs(m, n):
                        fr = factorize(h)
                        assert compose_homs(fr.closed_mono, fr.dense).maps == h.maps
                        count += 1
                        if count > 60:
                            break
                    if count > 60:
                        break
                if count > 60:
                    break
            assert count > 0


class TestOrthogonality:
    def antisym_arrow(self):
        # over preorders, where antisymmetry is not an axiom
        from phl.theories import preorder_theory
        pre = preorder_theory()
        ctx, phi = parse_formula_in_context("[x:*, y:*] leq(x,y) /\\ leq(y,x)",
                                            pre.signature)
        src = representing_model(pre, ctx, phi, 2)
        ctx2, phi2 = parse_formula_in_context(
            "[x:*, y:*] leq(x,y) /\\ leq(y,x) /\\ x = y", pre.signature)
        tgt = representing_model(pre, ctx2, phi2, 2)
        from phl.syntax import Var
        return repn_morphism(src, tgt, (Var("x"), Var("y"))).hom

    def test_arrow_is_proper(self):
        e = self.antisym_arrow()
        assert e.source.size() == 2 and e.target.size() == 1

    def test_chain_orthogonal(self, chain2):
        e = self.antisym_arrow()
        assert orthogonal(chain2, e)

    def test_cycle_not_orthogonal(self):
        e = self.antisym_arrow()
        assert not orthogonal(cycle_preorder(), e)

    def test_validity_iff_orthogonality(self):
        from phl.theories import preorder_theory
        pre = preorder_theory()
        e = self.antisym_arrow()
        antisym = parse_sequent("[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y",
                                pre.signature)
        for m in enumerate_models(pre, 3):
            assert holds(m, antisym).ok == orthogonal(m, e)


def reference_orthogonal(m, e):
    """Orthogonality by counting the fillers of every hom out of dom(e)."""
    homs_cod = enumerate_homs(e.target, m)
    for g in enumerate_homs(e.source, m):
        fillers = [h for h in homs_cod if compose_homs(h, e).maps == g.maps]
        if len(fillers) != 1:
            return False
    return True


@pytest.mark.parametrize("theory, size", [(pos_theory(), 3), (mon_theory(), 2)],
                         ids=["pos", "mon"])
def test_orthogonal_matches_filler_count(theory, size):
    """Counting restrictions decides orthogonality as the filler count does,
    for every arrow between models of size <= 2."""
    models = enumerate_models(theory, size)
    small = [m for m in models if m.size() <= 2]
    answers = set()
    for e in (h for a in small for b in small for h in enumerate_homs(a, b)):
        for m in models:
            got = orthogonal(m, e)
            assert got == reference_orthogonal(m, e), (m.name, e)
            answers.add(got)
    assert answers == {True, False}


class TestDiagonalFillers:
    def test_unique_filler_for_dense_vs_closed(self, pos, mon):
        theory = mon_theory()
        models = list(enumerate_models(theory, 2))
        denses, monos = [], []
        for m in models:
            for n in models:
                for h in enumerate_homs(m, n):
                    fr = factorize(h)
                    denses.append(fr.dense)
                    monos.append(fr.closed_mono)
        checked = 0
        for e in denses[:8]:
            for mno in monos[:8]:
                for u in enumerate_homs(e.source, mno.source):
                    for v in enumerate_homs(e.target, mno.target):
                        if compose_homs(v, e).maps != compose_homs(mno, u).maps:
                            continue
                        fillers = diagonal_fillers(e, mno, u, v)
                        assert len(fillers) == 1
                        checked += 1
        assert checked > 0


class TestRetraction:
    def test_identity_is_retraction(self, chain2):
        assert is_retraction(identity_hom(chain2)).ok

    def test_collapse_chain_to_point(self, chain2):
        pt = chain_poset(1)
        h = Homomorphism("c", chain2, pt, {"*": {"a": "a", "b": "a"}})
        r = is_retraction(h)
        assert r.ok and r.section is not None

    def test_mod2_is_not_a_monoid_retraction(self, mon, z4, z2):
        # no monoid section exists: both preimages of 1 square to 2, not 0
        h = Homomorphism("mod2", z4, z2,
                         {"*": {"0": "0", "1": "1", "2": "0", "3": "1"}})
        assert check_hom(h)
        assert is_surjective(h)
        assert not is_retraction(h).ok

    def test_mod2_is_U_retraction(self, mon, z4, z2):
        # underlying sets: any section of the surjection works
        trivial = set_theory()
        rho = make_theory_morphism("u", trivial, mon_theory(), {"*": "*"},
                                   {}, {})
        h = Homomorphism("mod2", z4, z2,
                         {"*": {"0": "0", "1": "1", "2": "0", "3": "1"}})
        r = is_U_retraction(h, lambda f: U_rho_hom(rho, f))
        assert r.ok

    def test_retractions_are_dense(self, pos):
        models = list(enumerate_models(pos_theory(), 2))
        for m in models:
            for n in models:
                for h in enumerate_homs(m, n):
                    if is_retraction(h).ok:
                        assert is_dense(h)

    def test_surjective_closed_mono_is_iso(self, pos):
        models = list(enumerate_models(pos_theory(), 2))
        for m in models:
            for n in models:
                for h in enumerate_homs(m, n):
                    if is_injective(h) and is_surjective(h) \
                            and is_closed_mono(h):
                        inv = Homomorphism(
                            "inv", n, m,
                            {"*": {v: k for k, v in h.maps["*"].items()}})
                        assert check_hom(inv)


class TestComposition:
    def test_closed_monos_compose(self, z4):
        sub, i1 = closed_submodel_generated(z4, {"*": {"2"}})
        sub0, i2 = closed_submodel_generated(sub, {"*": set()})
        comp = compose_homs(i1, i2)
        assert is_closed_mono(comp)

    def test_dense_compose(self, mon, z2):
        one = make_structure("one", mon.signature, {"*": ("1",)})
        h = Homomorphism("j", one, z2, {"*": {"1": "1"}})
        ident = identity_hom(z2)
        assert is_dense(compose_homs(ident, h))
