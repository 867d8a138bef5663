"""Closed monomorphisms, dense morphisms, generated closed submodels, the
(dense, closed-mono) factorization, orthogonality, and retraction detection.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .semantics import (
    Homomorphism, PartialStructure, check_hom, compose_homs, enumerate_homs,
    exists_hom, hom_image, partial_hom_ok,
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
    relations on tuples from the source: the inverse of h, a partial map
    from the target back to the source, preserves every table entry of the
    target whose arguments lie in the image."""
    if not check_hom(h):
        raise MorphologyError("not a homomorphism")
    if not is_injective(h):
        raise MorphologyError("not a monomorphism")
    inverse = {s: {v: k for k, v in h.maps[s].items()}
               for s in h.source.signature.sorts}
    return partial_hom_ok(h.target, h.source, inverse)


class _ClosureIndex:
    """The subsets of b as ints, closed under its function tables.

    Element i of b, counted over the sorts in signature order and each
    carrier in order, is bit n-1-i, so the first element is the most
    significant bit and counting 0 .. 2^n - 1 visits the subsets in the
    order of `itertools.product([False, True], repeat=n)`.  Each function
    entry is kept with the mask of its arguments and the bit of its value,
    each relation entry with the mask of its arguments."""

    def __init__(self, b: PartialStructure):
        sig = b.signature
        self.b = b
        elems = [(s, a) for s in sig.sorts for a in b.carrier(s)]
        self.bit = {e: 1 << (len(elems) - 1 - i) for i, e in enumerate(elems)}

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


def closed_submodel_generated(b: PartialStructure,
                              subset: dict[str, set[str]]) -> tuple[PartialStructure, Homomorphism]:
    """Smallest closed submodel of b containing the subset: the least fixed
    point adding values of function applications at tuples already inside,
    with induced tables."""
    sig = b.signature
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


def closed_submodels(b: PartialStructure):
    """Each distinct closed submodel of b, at its first occurrence when the
    subsets of b are visited as the numbers 0 .. 2^n - 1, the first element
    of the first sort being the most significant bit."""
    index = _ClosureIndex(b)
    seen = set()
    for mask in range(1 << len(index.bit)):
        closed = index.close(mask)
        if closed not in seen:
            seen.add(closed)
            yield index.induced(closed)


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
    checked once."""
    if not check_hom(h):
        raise MorphologyError(f"'{h.name}' is not a homomorphism")
    mid, incl = closed_submodel_generated(h.target, hom_image(h))
    dense = Homomorphism(f"{h.name}_dense", h.source, mid,
                         {s: dict(h.maps[s]) for s in h.source.signature.sorts})
    if not check_hom(dense):
        raise MorphologyError("corestriction failed to be a homomorphism")
    if not _image_generates_target(dense):
        raise MorphologyError("dense part failed the density check")
    if not is_closed_mono(incl):
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
