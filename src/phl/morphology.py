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


def closed_submodel_generated(b: PartialStructure,
                              subset: dict[str, set[str]]) -> tuple[PartialStructure, Homomorphism]:
    """Smallest closed submodel of b containing the subset: the least fixed
    point adding values of function applications at tuples already inside,
    with induced tables."""
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
    sub = PartialStructure(f"{b.name}_sub", sig, carriers, funcs, rels)
    incl = Homomorphism("incl", sub, b,
                        {s: {a: a for a in carriers[s]} for s in sig.sorts})
    return sub, incl


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
    through e."""
    homs_dom = enumerate_homs(e.source, m)
    homs_cod = enumerate_homs(e.target, m)
    for g in homs_dom:
        fillers = [h for h in homs_cod if compose_homs(h, e).maps == g.maps]
        if len(fillers) != 1:
            return False
    return True


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
