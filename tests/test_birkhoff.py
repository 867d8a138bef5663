import itertools
import random

import pytest

from phl import birkhoff
from phl.birkhoff import (
    SUBMODEL_ENUM_CAP, BirkhoffError, ClosureReport, ComponentPoset,
    FiniteCategory,
    ModelUniverse, acc_report, close_P, close_R, close_Scl, component_diagram,
    definability_check, find_iso, hsp_closure, iso_collapse,
    make_finite_category, posetification,
)
from phl.morphology import closed_submodel_generated
from phl.semantics import (
    Homomorphism, SemanticsError, check_hom, compose_homs, enumerate_homs,
    enumerate_models, holds, identity_hom, is_model, make_structure, product,
)
from phl.syntax import NamedAxiom, parse_sequent
from phl.theories import (
    antichain_poset, chain_poset, mon_inv_theory, mon_theory, pos_theory,
    preorder_theory, set_theory, zmod_monoid,
)
from phl.translation import U_rho_hom, make_theory_morphism

from conftest import partial_hom_ok


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
    """The first model of each iso class by a pairwise find_iso scan, in the
    order of (size, carrier sizes, table sizes, name)."""
    def order(m):
        sizes = tuple(len(m.carrier(s)) for s in m.signature.sorts)
        return (sum(sizes), sizes,
                tuple(len(m.func_table(f.name)) for f in m.signature.functions),
                tuple(len(m.rel_table(r.name)) for r in m.signature.relations),
                m.name)
    out = []
    for m in sorted(models, key=order):
        if all(find_iso(m, n) is None for n in out):
            out.append(m)
    return out


class TestIsoIndex:
    """The iso_key-bucketed dedup against a pairwise find_iso scan."""

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
                find_iso(m, n) is not None for n in u.models), m.name


def reference_find_iso(m, n):
    """The two-sided search find_iso ran before: the map and its inverse are
    both checked as they grow, and both again at the end."""
    if m.signature != n.signature or birkhoff.iso_key(m) != birkhoff.iso_key(n):
        return None
    inv_m = birkhoff._element_invariants(m)
    inv_n = birkhoff._element_invariants(n)
    todo = [(s, a) for s in m.signature.sorts for a in m.carrier(s)]
    assigned = {s: {} for s in m.signature.sorts}
    inverse = {s: {} for s in m.signature.sorts}

    def rec(i):
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


class TestOneSidedIsoSearch:
    """find_iso checks only the forward map; the two-sided search is the
    oracle."""

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
                    assert [h.maps for h in got] == [h.maps for h in want]
        assert hits > len(mixed)   # some pairs are distinct isomorphic models


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
            closed, rep = hsp_closure(u, pool, 2)
            assert rep.growth_witnesses == reference_witnesses(closed, pool, 2)
            assert rep.second_pass_stable == (not rep.growth_witnesses)
            r_added += bool(rep.r_added)
            witnessed += bool(rep.growth_witnesses)
        assert r_added and witnessed

    def test_grid_reached_through_retract_step(self):
        *_, (u, pool) = hsp_cases()
        closed, rep = hsp_closure(u, pool, 2)
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
            lambda closure, _r, pool, arity:
                reference_witnesses(closure, pool, arity))
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
        runs = [lambda u=u, pool=pool: hsp_closure(u, pool, 2)
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


class TestClosureOperators:
    def test_close_P_adds_product_order(self, pos, chain2):
        u = ModelUniverse(pos, [chain2])
        out, rep = close_P(u, 2)
        sizes = sorted(m.size() for m in out.models)
        assert 4 in sizes        # the product order
        assert 1 in sizes        # the empty product
        assert any("x" in name for name in rep.added)

    def test_close_P_adds_a_product_of_the_cap_size(self, pos, chain2):
        _, rep = close_P(ModelUniverse(pos, [chain2], size_cap=4), 2)
        assert "chain2xchain2" in rep.added and rep.skipped == ()
        _, rep = close_P(ModelUniverse(pos, [chain2], size_cap=3), 2)
        assert rep.skipped == ("chain2xchain2",)

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
        once, _ = close_P(u, 2)
        twice, _ = close_P(once, 2)
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
        pr_models, _ = close_P(r1, 2)
        p1, _ = close_P(e, 2)
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
        closed, rep = hsp_closure(u, pool, 2)
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
        closed, rep = hsp_closure(u, pool, 2)
        assert any(m.size() == 0 for m in closed.models)

    def test_gap_reached_by_product(self):
        # posets of size <= 2 viewed inside the pool of posets <= 4:
        # the square product escapes the class, so it is not a fixed point
        pos = pos_theory()
        pool = list(enumerate_models(pos, 3))
        small = [m for m in pool if m.size() <= 2]
        u = ModelUniverse(pos, small, 30)
        closed, rep = hsp_closure(u, pool, 2)
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
