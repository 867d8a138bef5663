import itertools
import random
from dataclasses import replace

import pytest

from phl import birkhoff
from phl.birkhoff import (
    PRODUCT_ARITY, SUBMODEL_ENUM_CAP, BirkhoffError, ClosureReport,
    ComponentPoset, FiniteCategory, HspReport,
    ModelUniverse, acc_report, close_P, close_R, close_Scl, component_diagram,
    canonical_form, definability_check, find_iso, hsp_closure, iso_collapse,
    make_finite_category, posetification,
)
from phl.morphology import closed_submodel_generated, closed_submodels
from phl.semantics import (
    HoldsResult, Homomorphism, SemanticsError, check_hom, compose_homs,
    enumerate_homs, enumerate_models, enumerate_structures, holds,
    identity_hom, is_model, make_structure, product, size_profiles,
)
from phl.syntax import NamedAxiom, parse_sequent, parse_theory
from phl.theories import (
    MON_INV_SRC, PREORDER_SRC, antichain_poset, cat_theory, chain_poset,
    mon_inv_theory, mon_theory, pos_theory, preorder_theory, set_theory,
    zmod_monoid,
)
from phl.translation import U_rho_hom, make_theory_morphism

from conftest import (
    brute_force_automorphisms, element_invariants, full_mask_scan, group_order,
    guarded_find_iso, inverse_is_hom, iso_key, oracle_iso_collapse,
    partial_hom_ok,
)
from test_morphology import seeded_members, structure_layout


def two_chain_category():
    return make_finite_category(
        ("A", "B"),
        {"iA": ("A", "A"), "iB": ("B", "B"), "f": ("A", "B")},
        {"A": "iA", "B": "iB"},
        {("iA", "iA"): "iA", ("iB", "iB"): "iB",
         ("f", "iA"): "f", ("iB", "f"): "f"})


class TestIso:
    def test_relabelled_chains_isomorphic(self):
        c1 = chain_poset(2, "ab")
        c2 = chain_poset(2, "xy")
        pair = find_iso(c1, c2)
        assert pair is not None
        h, hinv = pair
        assert h.maps["*"] == {"a": "x", "b": "y"}

    def test_chain_vs_antichain(self):
        assert find_iso(chain_poset(2), antichain_poset(2)) is None

    def test_monoid_iso(self):
        z4a = zmod_monoid(4)
        perm = make_structure(
            "z4p", mon_theory().signature, {"*": ("0", "3", "2", "1")},
            z4a.funcs)
        assert find_iso(z4a, perm) is not None

    def test_collapse(self):
        models = [chain_poset(2, "ab"), chain_poset(2, "uv"),
                  antichain_poset(2)]
        assert len(iso_collapse(models)) == 2


def relabelled(m, rng, name):
    """A copy of m under a random renaming of its elements, with its
    carriers listed in a random order."""
    sig = m.signature
    ren = {s: dict(zip(m.carrier(s), rng.sample(
        [f"r{i}" for i in range(len(m.carrier(s)))], len(m.carrier(s)))))
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


def reference_collapse(models):
    """The first model of each iso class by a pairwise scan with the iso
    search that canonical forms replaced, in the order of (size, carrier
    sizes, table sizes, name)."""
    def order(m):
        sizes = tuple(len(m.carrier(s)) for s in m.signature.sorts)
        return (sum(sizes), sizes,
                tuple(len(m.func_table(f.name)) for f in m.signature.functions),
                tuple(len(m.rel_table(r.name)) for r in m.signature.relations),
                m.name)
    out = []
    for m in sorted(models, key=order):
        if all(guarded_find_iso(m, n) is None for n in out):
            out.append(m)
    return out


class TestIsoIndex:
    """Dedup by canonical certificates against a pairwise scan with the iso
    search they replaced."""

    @pytest.mark.parametrize("theory", [preorder_theory(), mon_inv_theory()],
                             ids=["preord", "mon_inv"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_collapse_and_contains_match_pairwise_scan(self, theory, seed):
        rng = random.Random(seed)
        models = list(enumerate_models(theory, 3))
        copies = [relabelled(m, rng, f"{rng.choice('AMZ')}{i}")
                  for i, m in enumerate(rng.sample(models, len(models) // 2))]
        mixed = models + copies
        rng.shuffle(mixed)
        reps = reference_collapse(mixed)
        assert [m.name for m in iso_collapse(mixed)] == [m.name for m in reps]
        assert len(reps) < len(models)   # the input has iso duplicates
        sample = rng.sample(mixed, len(mixed) // 3)
        u = ModelUniverse(theory, sample)
        assert [m.name for m in u.models] == \
            [m.name for m in reference_collapse(sample)]
        for m in mixed:
            assert u.contains_iso(m) == any(
                guarded_find_iso(m, n) is not None for n in u.models), m.name

    @pytest.mark.parametrize("theory", [preorder_theory(), mon_inv_theory()],
                             ids=["preord", "mon_inv"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_inverse_guard_matches_check_hom(self, theory, seed):
        """find_iso's pair, which no final guard checks now, against
        check_hom of the map and of its inverse, and against the guarded
        search it replaced, on every pair of the corpus above with equal
        carrier sizes."""
        rng = random.Random(seed)
        models = list(enumerate_models(theory, 3))
        mixed = models + [relabelled(m, rng, f"{rng.choice('AMZ')}{i}")
                          for i, m in enumerate(rng.sample(models, len(models) // 2))]
        non_iso = 0
        for m, n in itertools.product(mixed, repeat=2):
            if any(len(m.carrier(s)) != len(n.carrier(s)) for s in m.carriers):
                continue
            got, want = find_iso(m, n), guarded_find_iso(m, n)
            assert (got is None) == (want is None), (m.name, n.name)
            if got is None:
                non_iso += iso_key(m) == iso_key(n)
                continue
            h, hinv = got
            assert check_hom(h) and check_hom(hinv) and inverse_is_hom(h)
            assert compose_homs(hinv, h).maps == identity_hom(m).maps
        if theory.signature.relations:
            assert non_iso, "every pair with equal keys is isomorphic"


def reference_find_iso(m, n, pinned=None):
    """The two-sided search find_iso ran before: the map and its inverse are
    both checked as they grow, and both again at the end; `pinned` gives
    each element of m its only allowed image."""
    if m.signature != n.signature or iso_key(m) != iso_key(n):
        return None
    inv_m = element_invariants(m)
    inv_n = element_invariants(n)
    todo = [(s, a) for s in m.signature.sorts for a in m.carrier(s)]
    assigned = {s: {} for s in m.signature.sorts}
    inverse = {s: {} for s in m.signature.sorts}

    def rec(i):
        if i == len(todo):
            return True
        s, a = todo[i]
        for b in n.carrier(s):
            if b in inverse[s] or inv_n[s][b] != inv_m[s][a] or \
                    pinned is not None and pinned[s][a] != b:
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


class TestOneSidedIsoSearch:
    """find_iso composes two canonical labellings and checks neither map;
    the two-sided search is the oracle, once free for the verdict and once
    pinned to find_iso's map for the maps."""

    @pytest.mark.parametrize("theory", [preorder_theory(), mon_inv_theory()],
                             ids=["preord", "mon_inv"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_maps_as_two_sided_search(self, theory, seed):
        rng = random.Random(seed)
        models = list(enumerate_models(theory, 3))
        copies = [relabelled(m, rng, f"{rng.choice('AMZ')}{i}")
                  for i, m in enumerate(rng.sample(models, len(models) // 2))]
        mixed = models + copies
        rng.shuffle(mixed)
        hits = 0
        for m in mixed:
            for n in mixed:
                got, want = find_iso(m, n), reference_find_iso(m, n)
                assert (got is None) == (want is None), (m.name, n.name)
                if got is not None:
                    hits += 1
                    want = reference_find_iso(m, n, pinned=got[0].maps)
                    assert [h.maps for h in got] == [h.maps for h in want]
        assert hits > len(mixed)   # some pairs are distinct isomorphic models


def structures_up_to(theory, size):
    """Every structure the enumerator gives with at most `size` elements in
    all."""
    return [m for sizes in size_profiles(theory.signature.sorts, size)
            if sum(sizes.values()) <= size
            for m in enumerate_structures(theory, sizes)]


class TestCanonicalForm:
    """Certificates against the iso search they replaced, and generators
    against the automorphism group counted by brute force."""

    @pytest.mark.parametrize("theory", [preorder_theory(), mon_inv_theory()],
                             ids=["preord", "mon_inv"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equal_certificates_exactly_when_isomorphic(self, theory, seed):
        """On the corpus of TestIsoIndex; and relabelled copies get the
        certificate of their model, with labellings that compose to an
        isomorphism."""
        rng = random.Random(seed)
        models = list(enumerate_models(theory, 3))
        mixed = models + [relabelled(m, rng, f"{rng.choice('AMZ')}{i}")
                          for i, m in enumerate(rng.sample(models, len(models) // 2))]
        for m, n in itertools.product(mixed, repeat=2):
            same = canonical_form(m).certificate == canonical_form(n).certificate
            assert same == (guarded_find_iso(m, n) is not None), (m.name, n.name)
        for m in models:
            copy_ = relabelled(m, rng, "copy")
            assert canonical_form(copy_).certificate == canonical_form(m).certificate
            h, hinv = find_iso(m, copy_)
            assert check_hom(h) and check_hom(hinv)
        assert [m.name for m in iso_collapse(mixed)] == \
            [m.name for m in oracle_iso_collapse(mixed)]

    @pytest.mark.parametrize("theory", [pos_theory(), preorder_theory(),
                                        mon_theory(), mon_inv_theory(),
                                        cat_theory()],
                             ids=["pos", "preord", "mon", "mon_inv", "cat"])
    def test_generators_generate_the_automorphism_group(self, theory):
        structures = structures_up_to(theory, 4)
        assert len({canonical_form(m).certificate for m in structures}) > 5
        symmetric = 0
        for m in structures:
            form = canonical_form(m)
            identity = tuple(range(m.size()))
            for g in form.generators:
                assert g != identity
                assert check_hom(Homomorphism("g", m, m, {
                    s: {m.view.elems[i][1]: m.view.elems[g[i]][1]
                        for i, (t, _) in enumerate(m.view.elems) if t == s}
                    for s in m.signature.sorts}))
            count = brute_force_automorphisms(m)
            assert group_order(form.generators, m.size()) == count, m.name
            symmetric += count > 1
        assert symmetric

    @pytest.mark.parametrize("make, size, nodes, leaves, order", [
        # M6xM6 of the definability pool: nine incomparable elements, one
        # cell that refinement cannot split, 9! automorphisms
        (lambda: product(pos_theory().signature, [antichain_poset(3)] * 2),
         9, 45, 9, 362880),
        (lambda: product(pos_theory().signature, [chain_poset(3)] * 2),
         9, 3, 2, 2),
        # Z3 x Z3 as a monoid: its automorphisms are GL(2, 3)
        (lambda: product(mon_theory().signature, [zmod_monoid(3)] * 2),
         9, 9, 5, 48),
        (lambda: product(mon_theory().signature, [zmod_monoid(2)] * 3),
         8, 13, 6, 168),
    ], ids=["antichain9", "chain3xchain3", "z3xz3", "z2xz2xz2"])
    def test_worst_cases(self, make, size, nodes, leaves, order):
        """Structures whose elements refinement leaves in large cells: the
        search stays small (at most n^2 leaves) because every automorphism
        it finds prunes the siblings in its orbit."""
        m = make()
        form = canonical_form(m)
        assert m.size() == size
        assert (form.nodes, form.leaves) == (nodes, leaves)
        assert leaves <= size * size
        assert group_order(form.generators, size) == order

    def test_canonical_form_is_cached(self):
        m = chain_poset(3)
        assert canonical_form(m) is canonical_form(m)

    def test_empty_structure(self, pos):
        empty = make_structure("mt", pos.signature, {"*": ()})
        form = canonical_form(empty)
        assert form.labelling == () and form.generators == ()
        assert form.certificate == canonical_form(
            make_structure("nil", pos.signature, {})).certificate
        assert find_iso(empty, chain_poset(1)) is None


# the two experiments of the definability benchmark, posets among preorders
# and groups among monoids with a partial inverse, pools up to size 3:
# (label, theory, judgment, depth, size cap)
BENCHMARK_EXPERIMENTS = (
    ("posets", preorder_theory(), "[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y",
     2, 30),
    ("groups", mon_inv_theory(), "[x:*] true |- def(inv(x))", 3, 20))


def definability_members():
    """(label, universe after close_P) for the two experiments of the
    definability benchmark."""
    for label, theory, text, _, cap in BENCHMARK_EXPERIMENTS:
        seq = parse_sequent(text, theory.signature)
        pool = iso_collapse(enumerate_models(theory, 3))
        u = ModelUniverse(theory, [m for m in pool if holds(m, seq).ok], cap)
        yield label, close_P(u)[0]


def orbit_scan_families():
    for label, after_p in definability_members():
        yield label, after_p.models
    yield from seeded_members()


def full_scan_candidates(members):
    """(label, submodel) for every distinct closed submodel of every member,
    each built, as `_closed_submodels` gave them before it took
    automorphisms."""
    for b in members:
        if b.size() > SUBMODEL_ENUM_CAP:
            yield b.name, None
            continue
        for _, sub in full_mask_scan(b):
            yield f"{b.name}|{sub.size()}", sub


class TestOrbitScan:
    """`closed_submodels` under a member's automorphisms against the full
    mask scan: the same distinct closed masks in the same order, the first
    of each orbit built as the scan built it and each later one given as an
    isomorphic earlier one, and the same decisions downstream."""

    @pytest.mark.parametrize("family", list(orbit_scan_families()),
                             ids=lambda f: f[0])
    def test_same_closed_masks(self, family):
        _, members = family
        copies = 0
        for b in members:
            if b.size() > SUBMODEL_ENUM_CAP:
                continue
            got = list(closed_submodels(b, canonical_form(b).generators))
            want = list(full_mask_scan(b))
            assert [c for c, _, _ in got] == [c for c, _ in want], b.name
            built = set()
            for (_, sub, first), (_, full) in zip(got, want):
                if first:
                    assert structure_layout(sub) == structure_layout(full)
                    built.add(id(sub))
                else:
                    assert id(sub) in built
                    assert guarded_find_iso(full, sub) is not None, b.name
                    copies += 1
        assert copies or family[0] == "mon_inv"

    @staticmethod
    def same_grow_decisions(u):
        got, rep = close_Scl(u)
        want, oracle = u.grow(full_scan_candidates(u.models))
        assert rep == oracle
        assert [m.name for m in got.models] == [m.name for m in want.models]
        assert got.index.keys() == want.index.keys()
        return rep

    @pytest.mark.parametrize("label, after_p", [
        pytest.param(label, u, id=label) for label, u in definability_members()])
    def test_same_grow_decisions(self, label, after_p):
        rep = self.same_grow_decisions(after_p)
        assert rep.added or label == "groups"

    def test_same_grow_decisions_on_test_theories(self, mon, z2, z4):
        """The universes of TestWitnessSearch after close_P, one with a
        member too large to scan, and Z/4 with Z/2 x Z/4 as monoids."""
        universes = [close_P(u)[0] for u, _ in hsp_cases()]
        universes.append(ModelUniverse(mon, [z4, product(mon.signature, [z2, z4])]))
        reports = [self.same_grow_decisions(u) for u in universes]
        assert any(rep.added for rep in reports)
        assert any(rep.skipped for rep in reports)

    def test_failing_judgment_matches_full_scan(self, monkeypatch):
        """A judgment that fails exactly on the structures with two
        elements, which is invariant under isomorphism but not closed under
        closed submodels: its report, `closure_failures` with each copy of
        a failing orbit in scan order, must be the full scan's, byte for
        byte."""
        real = birkhoff.holds

        def holds_unless_two(m, seq):
            return HoldsResult(False, ()) if m.size() == 2 else real(m, seq)

        pre = preorder_theory()
        pool = list(enumerate_models(pre, 3))
        antisym = NamedAxiom("antisym", parse_sequent(
            "[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y", pre.signature))
        monkeypatch.setattr(birkhoff, "holds", holds_unless_two)
        judged = []
        real_scan = birkhoff.closed_submodels

        def counted(b, generators):
            for closed, sub, first in real_scan(b, generators):
                judged.append(first)
                yield closed, sub, first

        monkeypatch.setattr(birkhoff, "closed_submodels", counted)
        got = definability_check(pre, [antisym], pool, depth=2, size_cap=30)
        monkeypatch.setattr(birkhoff, "closed_submodels",
                            lambda b, generators:
                                ((c, sub, True) for c, sub in full_mask_scan(b)))
        want = definability_check(pre, [antisym], pool, depth=2, size_cap=30)
        assert repr(got) == repr(want)
        assert len(got.closure_failures) > 50 and not got.fixed_point
        assert judged.count(False) > judged.count(True)


def reference_retract_exists(m, n):
    """Some r: m -> n and s: n -> m with r . s = id_n, by trying every pair."""
    ident = identity_hom(n).maps
    sections = enumerate_homs(n, m)
    return any(compose_homs(r, s).maps == ident
               for r in enumerate_homs(m, n) for s in sections)


class TestRetractSearch:
    @pytest.mark.parametrize("theory, size", [(pos_theory(), 3),
                                              (mon_inv_theory(), 2)],
                             ids=["pos", "mon_inv"])
    def test_agrees_with_all_pairs_of_homs(self, theory, size):
        models = list(enumerate_models(theory, size))
        verdicts = {(m.name, n.name): (birkhoff._retract_exists(m, n),
                                       reference_retract_exists(m, n))
                    for m in models for n in models}
        assert [pair for pair, (got, want) in verdicts.items() if got != want] == []
        assert {want for _, want in verdicts.values()} == {False, True}


def reference_witnesses(closure, pool, arity_cap, u_hom=None):
    """The exhaustive witness search: products capped at the largest pool
    member + 1, closed submodels of every enumerable closure member, and
    retracts, each compared with every missing pool member of its size."""
    sig = closure.theory.signature
    missing = [n for n in pool
               if all(find_iso(n, m) is None for m in closure.models)]
    if not missing:
        return ()
    max_pool = max(n.size() for n in pool)
    reachable = []
    for k in range(arity_cap + 1):
        for combo in itertools.combinations_with_replacement(closure.models, k):
            try:
                reachable.append(product(sig, list(combo), cap=max_pool + 1))
            except SemanticsError:
                continue
    for m in closure.models:
        if m.size() > SUBMODEL_ENUM_CAP:
            continue
        elems = [(s, a) for s in sig.sorts for a in m.carrier(s)]
        for mask in itertools.product([False, True], repeat=len(elems)):
            subset = {s: set() for s in sig.sorts}
            for (s, a), keep in zip(elems, mask):
                if keep:
                    subset[s].add(a)
            reachable.append(closed_submodel_generated(m, subset)[0])
    return tuple(
        n.name for n in missing
        if any(find_iso(n, r) is not None for r in reachable
               if r.size() == n.size())
        or any(birkhoff._retract_exists(m, n, u_hom) for m in closure.models))


def hsp_cases():
    """(universe, pool) pairs: ten universes sampled from the preorders up
    to size 2 the way criterion 7 samples its universes, the TestHsp
    set-ups, and a 16-element member, too large for subset enumeration,
    whose retracts close_R adds."""
    pre, pos = preorder_theory(), pos_theory()
    pool = list(enumerate_models(pre, 2))
    rng = random.Random(77)
    for _ in range(10):
        yield ModelUniverse(pre, rng.sample(pool, rng.randint(1, 4)), 40), pool
    posets = [m for m in pool if holds(m, pos.axiom("antisym").sequent).ok]
    yield ModelUniverse(pre, posets, 30), pool
    yield ModelUniverse(pre, [m for m in posets if m.size() > 0], 30), pool
    pool3 = list(enumerate_models(pos, 3))
    yield ModelUniverse(pos, [m for m in pool3 if m.size() <= 2], 30), pool3
    c2, c4 = chain_poset(2), chain_poset(4)
    grid = product(pos.signature, [c2, c2], name="grid")
    yield (ModelUniverse(pos, [product(pos.signature, [c4, c4])]),
           list(enumerate_models(pos, 2)) + [grid])


class TestWitnessSearch:
    """Closed submodels are enumerated only for members close_R added; the
    witnesses must equal those of the exhaustive search."""

    def test_hsp_witnesses_match_exhaustive_search(self):
        r_added = witnessed = 0
        for u, pool in hsp_cases():
            closed, rep = hsp_closure(u, pool)
            assert rep.growth_witnesses == reference_witnesses(closed, pool, 2)
            assert rep.second_pass_stable == (not rep.growth_witnesses)
            r_added += bool(rep.r_added)
            witnessed += bool(rep.growth_witnesses)
        assert r_added and witnessed

    def test_grid_reached_through_retract_step(self):
        *_, (u, pool) = hsp_cases()
        closed, rep = hsp_closure(u, pool)
        # the two-element chain and the grid are retracts of the 16-element
        # member; the two-element antichain (M2) is a closed submodel of the
        # grid, and neither a product nor a retract of any member
        assert rep.r_added == ("M3", "grid")
        assert rep.growth_witnesses == ("M2",)

    @pytest.mark.parametrize("theory, judgment, size, depth, cap", [
        (preorder_theory(), "[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y", 3, 2, 30),
        (preorder_theory(), "[x:*, y:*] leq(x,y) |- leq(y,x)", 2, 2, 30),
        (mon_inv_theory(), "[x:*] true |- def(inv(x))", 3, 3, 20),
    ], ids=["antisym", "sym", "inv_total"])
    def test_definability_report_matches_exhaustive_search(
            self, monkeypatch, theory, judgment, size, depth, cap):
        j = NamedAxiom("j", parse_sequent(judgment, theory.signature))
        pool = list(enumerate_models(theory, size))
        rep = definability_check(theory, [j], pool, depth=depth, size_cap=cap)
        monkeypatch.setattr(
            birkhoff, "_pool_growth_witnesses",
            lambda closure, _r, pool:
                reference_witnesses(closure, pool, PRODUCT_ARITY))
        assert definability_check(theory, [j], pool, depth=depth,
                                  size_cap=cap) == rep

    def test_no_retract_search_repeated(self, monkeypatch):
        """Within one closure, each (member, pool member) pair is searched
        for a retraction at most once."""
        searched = []
        real = birkhoff._retract_exists

        def counted(m, n, u_hom=None):
            searched.append((m, n))   # kept alive, so no id is reused
            return real(m, n, u_hom)

        monkeypatch.setattr(birkhoff, "_retract_exists", counted)
        pre = preorder_theory()
        j = NamedAxiom("antisym", parse_sequent(
            "[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y", pre.signature))
        runs = [lambda u=u, pool=pool: hsp_closure(u, pool)
                for u, pool in hsp_cases()]
        runs.append(lambda: definability_check(
            pre, [j], list(enumerate_models(pre, 3)), depth=2, size_cap=30))
        total = 0
        for run in runs:
            searched.clear()
            run()
            pairs = [(id(m), id(n)) for m, n in searched]
            assert len(set(pairs)) == len(pairs)
            total += len(pairs)
        assert total


class TestClosurePipeline:
    """`hsp_closure` and `definability_check` share one pipeline, whose
    retract step searches only the members too large for the submodel step
    to enumerate, unless a `u_hom` is given."""

    def test_same_as_standalone_operators(self):
        """close_P, close_Scl and close_R chained, the last searching every
        member, give the same report and members as hsp_closure."""
        for u, pool in hsp_cases():
            closed, rep = hsp_closure(u, pool)
            after_p, rp = close_P(u)
            after_s, rs = close_Scl(after_p)
            full, rr = close_R(after_s, pool)
            witnesses = reference_witnesses(full, pool, PRODUCT_ARITY)
            assert rep == HspReport(rp.added, rs.added, rr.added,
                                    rp.skipped + rs.skipped, not witnesses,
                                    witnesses)
            assert [m.name for m in closed.models] == [m.name for m in full.models]

    def test_no_missing_retract_within_cap(self, monkeypatch):
        """The lemma the retract step rests on, checked by search: after the
        submodel step, no pool member still missing is a retract of a member
        small enough for that step to enumerate."""
        seen = []
        real = birkhoff._close_R

        def recorded(universe, pool, bases, u_hom):
            seen.append((universe, pool))
            return real(universe, pool, bases, u_hom)

        monkeypatch.setattr(birkhoff, "_close_R", recorded)
        for u, pool in hsp_cases():
            hsp_closure(u, pool)
        for _, *experiment in BENCHMARK_EXPERIMENTS:
            benchmark_definability(*experiment)
        pairs = [(m, n) for universe, pool in seen for m in universe.models
                 if m.size() <= SUBMODEL_ENUM_CAP
                 for n in pool if not universe.contains_iso(n)]
        assert len(pairs) > 200
        assert [(m.name, n.name) for m, n in pairs
                if birkhoff._retract_exists(m, n)] == []

    def test_u_retracts_searched_in_every_member(self):
        """A U-retract need not be a closed submodel: with a `u_hom` the
        retract step searches members the submodel step enumerated too."""
        mon = mon_theory()
        pool = iso_collapse(enumerate_models(mon, 3))
        u = ModelUniverse(mon, [m for m in pool if m.name == "M11"], 9)
        rho = make_theory_morphism("u", set_theory(), mon, {"*": "*"}, {}, {})
        assert hsp_closure(u, pool)[1].r_added == ()
        _, rep = hsp_closure(u, pool, lambda f: U_rho_hom(rho, f))
        assert rep.r_added == ("M1", "M17")


def same_shape_copy(m, name):
    """A copy of m with the same numbered shape: its elements renamed but
    listed in the same order, its tables filled in reverse order."""
    sig = m.signature
    ren = {s: {a: f"q{i}" for i, a in enumerate(m.carrier(s))} for s in sig.sorts}
    funcs = {f.name: {tuple(ren[t][a] for a, t in zip(args, f.arg_sorts)):
                      ren[f.result][v]
                      for args, v in reversed(m.func_table(f.name).items())}
             for f in sig.functions}
    rels = {r.name: [tuple(ren[t][a] for a, t in zip(args, r.arg_sorts))
                     for args in reversed(list(m.rel_table(r.name)))]
            for r in sig.relations}
    carriers = {s: [ren[s][a] for a in m.carrier(s)] for s in sig.sorts}
    return make_structure(name, sig, carriers, funcs, rels)


def benchmark_definability(theory, text, depth, cap):
    """One experiment of the definability benchmark on a fresh copy of its
    pool, whose structures carry no canonical form yet."""
    j = NamedAxiom("j", parse_sequent(text, theory.signature))
    pool = [replace(m) for m in enumerate_models(theory, 3)]
    return definability_check(theory, [j], pool, depth=depth, size_cap=cap)


def memo_reports(case):
    """The reports of the benchmark experiment named `case`, or of
    hsp_closure on each universe of TestWitnessSearch, by repr."""
    if case == "hsp":
        return [repr((rep, [m.name for m in closed.models]))
                for closed, rep in (hsp_closure(u, pool) for u, pool in hsp_cases())]
    for label, *experiment in BENCHMARK_EXPERIMENTS:
        if label == case:
            return [repr(benchmark_definability(*experiment))]


class TestShapeMemo:
    """Batch callers of `canonical_form` search each numbered shape once:
    the shared form must be the one a fresh search of each structure finds,
    and the memo must not outlive the call that made it."""

    @pytest.mark.parametrize("theory", [pos_theory(), preorder_theory(),
                                        mon_theory(), mon_inv_theory(),
                                        cat_theory()],
                             ids=["pos", "preord", "mon", "mon_inv", "cat"])
    def test_memoized_form_equals_fresh_search(self, theory):
        """Every field (certificate, labelling, generators, nodes, leaves)
        equal, on every structure with at most 4 elements and on a copy of
        each with renamed elements and tables filled in another order."""
        structures = structures_up_to(theory, 4)
        copies = [same_shape_copy(m, f"c{i}") for i, m in enumerate(structures)]
        mixed = structures + copies
        random.Random(11).shuffle(mixed)
        shapes: dict = {}
        for m in mixed:
            assert canonical_form(m, shapes) == birkhoff._CanonicalSearch(m).run(), \
                m.name
        for m, c in zip(structures, copies):
            assert canonical_form(c) is canonical_form(m)
        assert len(shapes) <= len(structures)
        assert any(c.view.funcs + c.view.rels != m.view.funcs + m.view.rels
                   for m, c in zip(structures, copies))

    @pytest.mark.parametrize("case", ["posets", "groups", "hsp"])
    def test_same_reports_as_fresh_searches(self, monkeypatch, case):
        memoized = memo_reports(case)
        monkeypatch.setattr(birkhoff, "canonical_form",
                            lambda m, shapes=None: birkhoff._CanonicalSearch(m).run())
        assert memo_reports(case) == memoized

    def test_no_memo_outlives_its_call(self, monkeypatch):
        """Two identical runs of both benchmark experiments search as often
        as each other, and less often than with no shape memo.  A symbol of
        each theory is renamed, so no earlier test has seen its shapes."""
        experiments = [
            (parse_theory(PREORDER_SRC.replace("leq", "scope_leq")),
             "[x:*, y:*] scope_leq(x,y) /\\ scope_leq(y,x) |- x = y", 2, 30),
            (parse_theory(MON_INV_SRC.replace("mul", "scope_mul")),
             "[x:*] true |- def(inv(x))", 3, 20)]
        real_run, real_form = birkhoff._CanonicalSearch.run, birkhoff.canonical_form
        runs = []

        def counted(search):
            runs.append(search.n)
            return real_run(search)

        def searches():
            runs.clear()
            for experiment in experiments:
                benchmark_definability(*experiment)
            return len(runs)

        monkeypatch.setattr(birkhoff._CanonicalSearch, "run", counted)
        first, second = searches(), searches()
        monkeypatch.setattr(birkhoff, "canonical_form",
                            lambda m, shapes=None: real_form(m))
        assert first == second < searches()


class TestClosureOperators:
    def test_close_P_adds_product_order(self, pos, chain2):
        u = ModelUniverse(pos, [chain2])
        out, rep = close_P(u)
        sizes = sorted(m.size() for m in out.models)
        assert 4 in sizes        # the product order
        assert 1 in sizes        # the empty product
        assert any("x" in name for name in rep.added)

    def test_close_P_adds_a_product_of_the_cap_size(self, pos, chain2):
        _, rep = close_P(ModelUniverse(pos, [chain2], size_cap=4))
        assert "chain2xchain2" in rep.added and rep.skipped == ()
        _, rep = close_P(ModelUniverse(pos, [chain2], size_cap=3))
        assert rep.skipped == ("chain2xchain2",)

    def test_negative_size_cap_rejected(self, pos, chain2):
        with pytest.raises(BirkhoffError, match="size cap must be >= 0"):
            ModelUniverse(pos, [chain2], size_cap=-1)
        with pytest.raises(BirkhoffError, match="size cap must be >= 0"):
            definability_check(pos, [], [chain2], size_cap=-1)
        _, rep = close_P(ModelUniverse(pos, [chain2], size_cap=0))
        assert rep.added == () and len(rep.skipped) == 3

    def test_close_Scl_monoid(self, mon, z4):
        u = ModelUniverse(mon, [z4])
        out, rep = close_Scl(u)
        sizes = sorted(m.size() for m in out.models)
        assert sizes == [1, 2, 4]  # {0}, {0,2}, Z/4

    def test_close_R_contains_original(self, pos, chain2):
        u = ModelUniverse(pos, [chain2])
        out, rep = close_R(u, [chain2])
        assert any(find_iso(chain2, m) for m in out.models)

    def test_close_R_finds_retract(self, pos, chain2):
        pt = chain_poset(1, "z")
        u = ModelUniverse(pos, [chain2])
        out, rep = close_R(u, [pt])
        assert any(m.size() == 1 for m in out.models)

    def test_close_R_U_retract(self, mon, z4, z2):
        # z2 is a retract of z4 as a set but not as a monoid
        rho = make_theory_morphism("u", set_theory(), mon, {"*": "*"}, {}, {})
        u = ModelUniverse(mon, [z4])
        assert close_R(u, [z2])[1].added == ()
        out, rep = close_R(u, [z2], u_hom=lambda f: U_rho_hom(rho, f))
        assert rep.added == ("z2",)
        assert out.contains_iso(z2)

    def test_idempotence_within_pool(self, pos):
        pool = list(enumerate_models(preorder_theory(), 2))

        def visible(universe):
            return frozenset(m.name for m in pool if universe.contains_iso(m))

        u = ModelUniverse(pos, [chain_poset(2)], 30)
        once, _ = close_P(u)
        twice, _ = close_P(once)
        assert visible(once) == visible(twice)
        s_once, _ = close_Scl(once)
        s_twice, _ = close_Scl(s_once)
        assert len(s_twice.models) == len(s_once.models)
        r_once, _ = close_R(s_once, pool)
        r_twice, _ = close_R(r_once, pool)
        assert len(r_twice.models) == len(r_once.models)

    def test_containment_P_R(self, pos):
        # P(R(E)) subseteq R(P(E)) within the pool
        pre = preorder_theory()
        pool = list(enumerate_models(pre, 2))
        e = ModelUniverse(pre, [chain_poset(2)], 30)
        r1, _ = close_R(e, pool)
        pr_models, _ = close_P(r1)
        p1, _ = close_P(e)
        rp_models, _ = close_R(p1, pool)
        for m in pr_models.models:
            if m.size() <= 2:
                assert rp_models.contains_iso(m) or not any(
                    find_iso(m, q) for q in pool)

    def test_non_model_rejected(self, pos):
        from phl.theories import cycle_preorder
        with pytest.raises(BirkhoffError):
            ModelUniverse(pos, [cycle_preorder()])

    def test_grow_rejects_a_non_model_candidate(self, pos, chain2):
        from phl.theories import cycle_preorder
        u = ModelUniverse(pos, [chain2])
        with pytest.raises(BirkhoffError, match="'cyc2' is not a model"):
            u.grow([("one", chain_poset(1, "z")), ("cyc", cycle_preorder())])

    def test_grow_checks_only_the_added_candidates(self, pos, chain2,
                                                   monkeypatch):
        u = ModelUniverse(pos, [chain_poset(3), chain2])
        disc2 = antichain_poset(2)
        checked = []

        def counting(m, theory):
            checked.append(m.name)
            return is_model(m, theory)

        monkeypatch.setattr(birkhoff, "is_model", counting)
        out, rep = u.grow([("c2", chain_poset(2, "xy")), ("d2", disc2),
                           ("big", None), ("d2again", antichain_poset(2, "pq"))])
        assert checked == ["disc2"]
        assert rep == ClosureReport(("d2",), ("big",))
        # the members come out as the public constructor orders them
        assert out.models == ModelUniverse(pos, [chain2, disc2,
                                                 chain_poset(3)]).models
        assert out.index == birkhoff._index(out.models)
        assert out.contains_iso(antichain_poset(2, "uv"))


class TestHsp:
    def test_already_closed_fixed_point(self, pos):
        pre = preorder_theory()
        pool = list(enumerate_models(pre, 2))
        posets = [m for m in pool
                  if holds(m, pos.axiom("antisym").sequent).ok]
        u = ModelUniverse(pre, posets, 30)
        closed, rep = hsp_closure(u, pool)
        assert rep.second_pass_stable
        assert not rep.growth_witnesses

    def test_gap_reached_by_closure(self):
        # posets without the empty one: the submodel operator reaches it,
        # so that class is not hsp-closed
        pre = preorder_theory()
        pool = list(enumerate_models(pre, 2))
        posets = [m for m in pool
                  if holds(m, pos_theory().axiom("antisym").sequent).ok]
        nonempty = [m for m in posets if m.size() > 0]
        u = ModelUniverse(pre, nonempty, 30)
        closed, rep = hsp_closure(u, pool)
        assert any(m.size() == 0 for m in closed.models)

    def test_gap_reached_by_product(self):
        # posets of size <= 2 viewed inside the pool of posets <= 4:
        # the square product escapes the class, so it is not a fixed point
        pos = pos_theory()
        pool = list(enumerate_models(pos, 3))
        small = [m for m in pool if m.size() <= 2]
        u = ModelUniverse(pos, small, 30)
        closed, rep = hsp_closure(u, pool)
        reached = [m for m in closed.models if m.size() == 3]
        assert reached  # three-element closed submodels of products appear


class TestDefinability:
    def test_posets_among_preorders(self):
        pre = preorder_theory()
        pool = list(enumerate_models(pre, 2))
        antisym = NamedAxiom("antisym", parse_sequent(
            "[x:*, y:*] leq(x,y) /\\ leq(y,x) |- x = y", pre.signature))
        rep = definability_check(pre, [antisym], pool, depth=2, size_cap=30)
        assert rep.ok
        assert not rep.closure_failures
        assert not rep.orthogonality_failures

    def test_empty_judgments_trivially_closed(self):
        pre = preorder_theory()
        pool = list(enumerate_models(pre, 2))
        rep = definability_check(pre, [], pool, depth=2, size_cap=30)
        assert rep.fixed_point

    def test_non_closed_class_reported(self):
        # over posets, drop the square from the pool-defined class via a
        # judgment the square satisfies: impossible; instead check the raw
        # gap detection through hsp on a deliberately broken universe
        pre = preorder_theory()
        pool = list(enumerate_models(pre, 2))
        sym = NamedAxiom("sym", parse_sequent(
            "[x:*, y:*] leq(x,y) |- leq(y,x)", pre.signature))
        rep = definability_check(pre, [sym], pool, depth=2, size_cap=30)
        # symmetric preorders are closed under P, Scl, R at this scale
        assert rep.fixed_point


class TestPosetification:
    def test_single_object(self):
        c = make_finite_category(("A",), {"iA": ("A", "A")}, {"A": "iA"},
                                 {("iA", "iA"): "iA"})
        p = posetification(c)
        assert p.components == (("A",),)
        assert acc_report(p) == 1

    def test_arrow_gives_two_chain(self):
        p = posetification(two_chain_category())
        assert len(p.components) == 2
        assert acc_report(p) == 2

    def test_mutual_arrows_one_component(self):
        c = make_finite_category(
            ("A", "B"),
            {"iA": ("A", "A"), "iB": ("B", "B"), "f": ("A", "B"),
             "g": ("B", "A")},
            {"A": "iA", "B": "iB"},
            {("iA", "iA"): "iA", ("iB", "iB"): "iB",
             ("f", "iA"): "f", ("iB", "f"): "f",
             ("g", "iB"): "g", ("iA", "g"): "g",
             ("g", "f"): "iA", ("f", "g"): "iB"})
        p = posetification(c)
        assert len(p.components) == 1
        assert acc_report(p) == 1

    def test_bad_category_rejected(self):
        with pytest.raises(BirkhoffError):
            make_finite_category(("A",), {"iA": ("A", "A")}, {},
                                 {("iA", "iA"): "iA"})

    def test_repeated_object_rejected(self):
        with pytest.raises(BirkhoffError, match="duplicate object 'A'"):
            make_finite_category(("A", "A"), {"iA": ("A", "A")}, {"A": "iA"},
                                 {("iA", "iA"): "iA"})


class TestComponentDiagram:
    def test_nonempty_posets_strongly_connected(self, pos):
        models = [m for m in enumerate_models(pos, 2) if m.size() > 0]
        u = ModelUniverse(pos, models)
        p = posetification(component_diagram(u))
        assert len(p.components) == 1

    def test_empty_and_point(self, pos):
        empty = make_structure("mt", pos.signature, {"*": ()})
        pt = chain_poset(1)
        u = ModelUniverse(pos, [empty, pt])
        p = posetification(component_diagram(u))
        assert len(p.components) == 2
        assert acc_report(p) == 2

    def test_empty_universe(self, pos):
        u = ModelUniverse(pos, [])
        p = posetification(component_diagram(u))
        assert p.components == ()
        assert acc_report(p) == 0
