#!/usr/bin/env python3
"""Saturate a few representing models and print them, including the free
join-semilattice on two generators built from a relative theory."""
import argparse

from phl.freemodel import representing_model
from phl.semantics import make_structure, print_model
from phl.syntax import (
    App, Context, Eq, NamedAxiom, Sequent, TRUE, Var, parse_formula_in_context,
)
from phl.theories import mon_theory, pos_theory, set_theory
from phl.translation import RelOperator, free_algebra, make_relative_theory


def semilattice():
    x, y, z = Var("x"), Var("y"), Var("z")
    j = lambda a, b: App("join", (a, b))
    return make_relative_theory(
        set_theory(),
        [RelOperator("join", Context((("x", "*"), ("y", "*"))), TRUE, "*")],
        [NamedAxiom("idem", Sequent(Context((("x", "*"),)), TRUE,
                                    Eq(j(x, x), x))),
         NamedAxiom("comm", Sequent(Context((("x", "*"), ("y", "*"))), TRUE,
                                    Eq(j(x, y), j(y, x)))),
         NamedAxiom("assoc", Sequent(Context((("x", "*"), ("y", "*"),
                                              ("z", "*"))), TRUE,
                                     Eq(j(j(x, y), z), j(x, j(y, z)))))])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=3)
    args = ap.parse_args()

    pos = pos_theory()
    ctx, phi = parse_formula_in_context("[x:*, y:*] leq(x,y)", pos.signature)
    p = representing_model(pos, ctx, phi, args.depth)
    print(print_model(p.structure, "pos").rstrip())
    print(f"status: {p.status}\n")

    mon = mon_theory()
    ctx, phi = parse_formula_in_context("[x:*] true", mon.signature)
    p = representing_model(mon, ctx, phi, args.depth)
    print(f"free monoid on one generator at depth {args.depth}: "
          f"{p.element_count()} elements, {p.status}\n")

    base = make_structure("two", set_theory().signature, {"*": ("a", "b")})
    fa = free_algebra(semilattice(), base, args.depth)
    print(print_model(fa.presentation.structure, "semilattice").rstrip())
    print(f"status: {fa.presentation.status}")
    print("unit:", {a: fa.unit.maps['*'][a] for a in base.carrier('*')})


if __name__ == "__main__":
    main()
