"""Seeded generator of random sequents for the prove-corpus workload.

The benchmark owns this generator instead of reusing
``phl.sampling.random_sequent`` for two reasons:

* ``sampling.random_term`` still picks a constructor at depth <= 0 when a
  sort has neither a variable nor a constant in the context.  Over ``cat``
  with only ``ob`` variables, a ``mor`` term then recurses through ``comp``
  with no depth limit: ``random.Random(2)`` drawing 60 sequents each from
  pos, preord and mon, then from cat (``max_vars=3, max_atoms=2,
  depth=2``), raises ``RecursionError`` on the 10th cat draw.  Here depth 0
  only ever returns a leaf, so every sort has a bounded base case and a
  term that cannot be built is ``None``.
* The corpus must stay the same when ``sampling.py`` changes.
"""
from __future__ import annotations

import random

from phl.syntax import App, Context, Eq, RelApp, Sequent, Theory, Var, conj, defined


def random_term(rng: random.Random, sig, ctx: Context, sort: str, depth: int):
    """A term of the sort of height <= depth, or None when none exists."""
    leaves = [Var(n) for n, s in ctx.vars if s == sort]
    leaves += [App(f.name, ()) for f in sig.functions
               if f.result == sort and not f.arg_sorts]
    constructors = [f for f in sig.functions if f.result == sort and f.arg_sorts]
    if depth <= 0:
        constructors = []
    if leaves and (not constructors or rng.random() < 0.5):
        return rng.choice(leaves)
    while constructors:
        f = rng.choice(constructors)
        args = [random_term(rng, sig, ctx, s, depth - 1) for s in f.arg_sorts]
        if None not in args:
            return App(f.name, tuple(args))
        constructors.remove(f)
    return rng.choice(leaves) if leaves else None


def random_atom(rng: random.Random, sig, ctx: Context, depth: int):
    kinds = ["eq", "def"] + (["rel", "rel"] if sig.relations else [])
    kind = rng.choice(kinds)
    if kind == "rel":
        r = rng.choice(sig.relations)
        args = [random_term(rng, sig, ctx, s, depth) for s in r.arg_sorts]
        return None if None in args else RelApp(r.name, tuple(args))
    sort = rng.choice(sig.sorts)
    lhs = random_term(rng, sig, ctx, sort, depth)
    if lhs is None:
        return None
    if kind == "def":
        return defined(lhs)
    rhs = random_term(rng, sig, ctx, sort, depth)
    return None if rhs is None else Eq(lhs, rhs)


def random_formula(rng: random.Random, sig, ctx: Context, max_atoms: int, depth: int):
    parts = [random_atom(rng, sig, ctx, depth)
             for _ in range(rng.randint(0, max_atoms))]
    return conj([p for p in parts if p is not None])


def random_sequent(rng: random.Random, theory: Theory, n_vars: int,
                   max_atoms: int = 2, depth: int = 2) -> Sequent:
    """A sequent over n_vars variables of random sorts."""
    sig = theory.signature
    ctx = Context(tuple((f"x{i}", rng.choice(sig.sorts)) for i in range(n_vars)))
    return Sequent(ctx, random_formula(rng, sig, ctx, max_atoms, depth),
                   random_formula(rng, sig, ctx, max_atoms, depth))

