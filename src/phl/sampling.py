"""Deterministic random generators for terms, formulas and sequents over a
signature; used by the experiment scripts and the acceptance sweeps."""
from __future__ import annotations

import random

from .syntax import (
    App, Context, Eq, Formula, RelApp, Sequent, Signature, Term, Theory,
    Var, conj, defined,
)


def random_context(rng: random.Random, sig: Signature, max_vars: int = 3) -> Context:
    n = rng.randint(1, max_vars)
    entries = tuple((f"x{i}", rng.choice(sig.sorts)) for i in range(n))
    return Context(entries)


def random_term(rng: random.Random, sig: Signature, ctx: Context, sort: str,
                depth: int = 2) -> Term | None:
    vars_of_sort = [n for n, s in ctx.vars if s == sort]
    constructors = [f for f in sig.functions if f.result == sort]
    if depth <= 0 or not constructors or (vars_of_sort and rng.random() < 0.5):
        if vars_of_sort:
            return Var(rng.choice(vars_of_sort))
        nullary = [f for f in constructors if not f.arg_sorts]
        if nullary:
            return App(rng.choice(nullary).name, ())
        return None
    f = rng.choice(constructors)
    args = []
    for s in f.arg_sorts:
        t = random_term(rng, sig, ctx, s, depth - 1)
        if t is None:
            return None
        args.append(t)
    return App(f.name, tuple(args))


def random_atom(rng: random.Random, sig: Signature, ctx: Context,
                depth: int = 2) -> Formula | None:
    kinds = ["eq", "def"]
    if sig.relations:
        kinds.append("rel")
        kinds.append("rel")
    kind = rng.choice(kinds)
    if kind == "rel":
        r = rng.choice(sig.relations)
        args = []
        for s in r.arg_sorts:
            t = random_term(rng, sig, ctx, s, depth)
            if t is None:
                return None
            args.append(t)
        return RelApp(r.name, tuple(args))
    sort = rng.choice(sig.sorts)
    lhs = random_term(rng, sig, ctx, sort, depth)
    if lhs is None:
        return None
    if kind == "def":
        return defined(lhs)
    rhs = random_term(rng, sig, ctx, sort, depth)
    if rhs is None:
        return None
    return Eq(lhs, rhs)


def random_formula(rng: random.Random, sig: Signature, ctx: Context,
                   max_atoms: int = 3, depth: int = 2) -> Formula:
    n = rng.randint(0, max_atoms)
    parts = []
    for _ in range(n):
        a = random_atom(rng, sig, ctx, depth)
        if a is not None:
            parts.append(a)
    return conj(parts)


def random_sequent(rng: random.Random, theory: Theory, max_vars: int = 3,
                   max_atoms: int = 3, depth: int = 2) -> Sequent:
    sig = theory.signature
    ctx = random_context(rng, sig, max_vars)
    return Sequent(ctx, random_formula(rng, sig, ctx, max_atoms, depth),
                   random_formula(rng, sig, ctx, max_atoms, depth))
