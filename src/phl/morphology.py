"""Closed monomorphisms, dense morphisms, generated closed submodels, the
(dense, closed-mono) factorization, orthogonality, and retraction detection.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .semantics import (
    Homomorphism, PartialStructure, check_hom, compose_homs, enumerate_homs,
    exists_hom, hom_image,
)
from .syntax import PhlError


class MorphologyError(PhlError):
    pass


def is_injective(h: Homomorphism) -> bool:
    return all(len(set(h.maps[s].values())) == len(h.maps[s])
               for s in h.source.signature.sorts)


def is_surjective(h: Homomorphism) -> bool:
    return all(set(h.maps[s].values()) == set(h.target.carrier(s))
               for s in h.source.signature.sorts)


def is_closed_mono(h: Homomorphism) -> bool:
    """A monomorphism reflecting definedness of functions and membership of
    relations on tuples from the source: the image of h (as large as the
    source) is closed, and the inverse of h is a hom from it to the source."""
    if not check_hom(h):
        raise MorphologyError("not a homomorphism")
    if not is_injective(h):
        raise MorphologyError("not a monomorphism")
    sub, _ = closed_submodel_generated(h.target, hom_image(h))
    return _image_is_closed(h, sub)


def _image_is_closed(h: Homomorphism, sub: PartialStructure) -> bool:
    """Whether the image of a mono h is `sub`, the closed submodel its image
    generates, with the inverse of h a hom from `sub` to the source."""
    inverse = {s: {b: {a} for a, b in h.maps[s].items()}
               for s in h.source.signature.sorts}
    return sub.size() == h.source.size() and \
        exists_hom(sub, h.source, restrict=inverse) is not None


class _ClosureIndex:
    """The subsets of b as ints, closed under its function tables.

    Element i of b's view is bit n-1-i, so the first element is the most
    significant bit and counting 0 .. 2^n - 1 visits the subsets in the
    order of `itertools.product([False, True], repeat=n)`.  Each function
    entry is kept with the mask of its arguments and the bit of its value,
    each relation entry with the mask of its arguments."""

    def __init__(self, b: PartialStructure):
        sig = b.signature
        self.b = b
        top = len(b.view.elems) - 1
        self.bit = {e: 1 << (top - i) for i, e in enumerate(b.view.elems)}

        def args_mask(args, sorts):
            mask = 0
            for a, s in zip(args, sorts):
                mask |= self.bit[(s, a)]
            return mask

        self.funcs = {f.name: [(args_mask(args, f.arg_sorts),
                                self.bit[(f.result, val)], args, val)
                               for args, val in b.func_table(f.name).items()]
                      for f in sig.functions}
        self.rels = {r.name: [(args_mask(args, r.arg_sorts), args)
                              for args in b.rel_table(r.name)]
                     for r in sig.relations}
        self.steps = [(m, v) for entries in self.funcs.values()
                      for m, v, _, _ in entries]

    def close(self, mask: int) -> int:
        """Least superset of mask holding the value of every function entry
        whose arguments it holds; constants have no arguments, so even the
        closure of 0 holds them."""
        changed = bool(self.steps)
        while changed:
            changed = False
            for args, value in self.steps:
                if not args & ~mask and not value & mask:
                    mask |= value
                    changed = True
        return mask

    def induced(self, mask: int) -> PartialStructure:
        """The substructure on the elements in mask, with induced tables."""
        b = self.b
        outside = ~mask
        carriers = {s: tuple(a for a in b.carrier(s) if self.bit[(s, a)] & mask)
                    for s in b.signature.sorts}
        funcs = {f: {args: val for m, _, args, val in entries if not m & outside}
                 for f, entries in self.funcs.items()}
        rels = {r: frozenset(args for m, args in entries if not m & outside)
                for r, entries in self.rels.items()}
        return PartialStructure(f"{b.name}_sub", b.signature, carriers, funcs, rels)


def _mask_permutation(perm) -> Callable[[int], int]:
    """The map on `_ClosureIndex` masks that sends each element i of the
    view to element perm[i]."""
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


def closed_submodel_generated(b: PartialStructure,
                              subset: dict[str, set[str]]) -> tuple[PartialStructure, Homomorphism]:
    """Smallest closed submodel of b containing the subset: the least fixed
    point adding values of function applications at tuples already inside,
    with induced tables."""
    sig = b.signature
    unknown = set(subset) - set(sig.sorts)
    if unknown:
        raise MorphologyError(f"subset for unknown sorts {sorted(unknown)}")
    index = _ClosureIndex(b)
    mask = 0
    for s in sig.sorts:
        elems = subset.get(s, set())
        bad = {a for a in elems if (s, a) not in index.bit}
        if bad:
            raise MorphologyError(f"subset contains foreign elements {sorted(bad)}")
        for a in elems:
            mask |= index.bit[(s, a)]
    sub = index.induced(index.close(mask))
    incl = Homomorphism("incl", sub, b,
                        {s: {a: a for a in sub.carrier(s)} for s in sig.sorts})
    return sub, incl


def closed_submodels(b: PartialStructure, generators):
    """(closed, sub, first) for each distinct closed subset of b, at its
    first occurrence when the subsets are visited as the numbers 0 .. 2^n -
    1, the first element of the first sort being the most significant bit;
    `closed` is the subset as such a number.

    Each generator g is an automorphism of b, sending element i of its view
    to element g[i].  `sub` is the submodel induced on the first closed
    subset of the orbit of `closed` under the group they generate, built
    once and given again for the orbit's later subsets; `first` tells
    whether `closed` is that first subset."""
    index = _ClosureIndex(b)
    maps = [_mask_permutation(g) for g in generators]
    seen, orbit_of = set(), {}
    for mask in range(1 << len(index.bit)):
        closed = index.close(mask)
        if closed in seen:
            continue
        seen.add(closed)
        sub = orbit_of.get(closed)
        if sub is not None:
            yield closed, sub, False
            continue
        sub = orbit_of[closed] = index.induced(closed)
        todo = [closed]
        for x in todo:
            for image in maps:
                y = image(x)
                if y not in orbit_of:
                    orbit_of[y] = sub
                    todo.append(y)
        yield closed, sub, True


def is_dense(h: Homomorphism) -> bool:
    """Whether the closed submodel generated by the image is the whole target."""
    if not check_hom(h):
        raise MorphologyError("not a homomorphism")
    return _image_generates_target(h)


def _image_generates_target(h: Homomorphism) -> bool:
    sub, _ = closed_submodel_generated(h.target, hom_image(h))
    return all(set(sub.carrier(s)) == set(h.target.carrier(s))
               for s in h.source.signature.sorts)


@dataclass(frozen=True)
class FactorizationResult:
    dense: Homomorphism
    closed_mono: Homomorphism
    mid: PartialStructure


def factorize(h: Homomorphism) -> FactorizationResult:
    """Factor h as a dense morphism followed by a closed monomorphism, through
    the closed submodel generated by the image.  Each hom involved is
    checked once, and each closure is taken once: the inclusion's image is
    the closed submodel itself, so it generates that submodel again."""
    if not check_hom(h):
        raise MorphologyError(f"'{h.name}' is not a homomorphism")
    mid, incl = closed_submodel_generated(h.target, hom_image(h))
    dense = Homomorphism(f"{h.name}_dense", h.source, mid,
                         {s: dict(h.maps[s]) for s in h.source.signature.sorts})
    if not check_hom(dense):
        raise MorphologyError("corestriction failed to be a homomorphism")
    if not _image_generates_target(dense):
        raise MorphologyError("dense part failed the density check")
    if not (check_hom(incl) and is_injective(incl) and _image_is_closed(incl, mid)):
        raise MorphologyError("inclusion failed the closedness check")
    comp = compose_homs(incl, dense)
    if comp.maps != h.maps:
        raise MorphologyError("factorization does not compose to the input")
    return FactorizationResult(dense, incl, mid)


def orthogonal(m: PartialStructure, e: Homomorphism) -> bool:
    """Whether every map from the domain of e into m factors uniquely
    through e: restriction along e is a bijection from the homs out of the
    codomain onto the homs out of the domain.  Each restriction is already a
    hom out of the domain, so it suffices that the restrictions are pairwise
    distinct and as many as the homs out of the domain."""
    homs_cod = enumerate_homs(e.target, m)
    restrictions = {tuple(tuple(compose_homs(h, e).maps[s].values())
                          for s in e.source.signature.sorts) for h in homs_cod}
    return len(restrictions) == len(homs_cod) == len(enumerate_homs(e.source, m))


def diagonal_fillers(e: Homomorphism, mno: Homomorphism, u: Homomorphism,
                     v: Homomorphism) -> list[Homomorphism]:
    """All diagonals w with w . e = u and mno . w = v for a commuting square
    v . e = mno . u."""
    if compose_homs(v, e).maps != compose_homs(mno, u).maps:
        raise MorphologyError("square does not commute")
    out = []
    for w in enumerate_homs(e.target, mno.source):
        if compose_homs(w, e).maps == u.maps and compose_homs(mno, w).maps == v.maps:
            out.append(w)
    return out


@dataclass(frozen=True)
class RetractionReport:
    ok: bool
    section: Homomorphism | None = None

    def __bool__(self):
        return self.ok


def is_retraction(h: Homomorphism) -> RetractionReport:
    """Search for a section: a homomorphism into the h-preimage of each
    element composing with h to the identity."""
    preimages = {
        s: {x: {a for a, v in h.maps[s].items() if v == x}
            for x in h.target.carrier(s)}
        for s in h.source.signature.sorts}
    if any(not c for t in preimages.values() for c in t.values()):
        return RetractionReport(False)
    section = exists_hom(h.target, h.source, restrict=preimages)
    if section is None:
        return RetractionReport(False)
    return RetractionReport(True, section)


def is_U_retraction(h: Homomorphism,
                    u_hom: Callable[[Homomorphism], Homomorphism]) -> RetractionReport:
    """Retraction after applying a translation functor to the morphism."""
    return is_retraction(u_hom(h))
