"""A budgeted semi-decision procedure for entailment via saturation of the
representing model, with finite countermodel search as the refutation
oracle.  The proof calculus it answers to is `phl.kernel`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .freemodel import (
    DEFAULT_WORK_BUDGET, ModelPresentation, SaturationStatus, TraceEvent,
    saturate,
)
from .semantics import PartialStructure, holds, iter_models
from .syntax import PhlError, Sequent, Theory, well_formed

if TYPE_CHECKING:
    from .kernel import Derivation


# ---------------------------------------------------------------------------
# the decision procedure

@dataclass(frozen=True)
class Proved:
    trace: tuple[TraceEvent, ...]
    status: SaturationStatus
    derivation: Derivation | None = None

    verdict = "Proved"


@dataclass(frozen=True)
class Refuted:
    countermodel: PartialStructure
    witness: tuple[str, ...]
    note: str = ""

    verdict = "Refuted"


@dataclass(frozen=True)
class UnknownVerdict:
    reason: str

    verdict = "Unknown"


ProveResult = Proved | Refuted | UnknownVerdict


FIRST_SLICE = 16       # the first saturation gets max_work // FIRST_SLICE
FIRST_MODELS = 64      # models tried between the first and the full saturation


def _countermodel(models, seq: Sequent) -> Refuted | None:
    """The first model where `seq` fails, with `holds`' witness: the first
    failing tuple in carrier order."""
    for m in models:
        r = holds(m, seq)
        if not r.ok:
            return Refuted(m, r.witness, "enumerated countermodel")
    return None


def prove(theory: Theory, seq: Sequent, depth: int = 4, model_size: int = 4,
          max_work: int | None = None) -> ProveResult:
    """Budgeted entailment check.

    Proved when saturating the representing model of the premise to the given
    depth puts the generic tuple inside the conclusion; Refuted by the
    saturated term model itself or by an enumerated finite countermodel
    (the first in `enumerate_models` order, which is enumerated no further);
    Unknown otherwise.  `max_work` bounds the axiom instances saturation
    tries (None selects DEFAULT_WORK_BUDGET; a negative budget raises).

    With `model_size > 0` saturation first gets `max_work // FIRST_SLICE`.
    A slice that does not run out of budget is final: the full run would
    take the same steps.  That the term model is saturated is read from the
    slice's last pass, at no cost to the budget.  Otherwise, unless the
    slice reached the goal, the first FIRST_MODELS models are searched for
    a countermodel; then saturation starts afresh with the whole budget,
    and the rest of the same model iterator is searched after it.  So no
    model is enumerated twice, a Proved carries the full run's trace, and
    the countermodel is the first in enumeration order.
    """
    if depth < 0:
        raise PhlError("depth budget must be >= 0")
    if model_size < 0:
        raise PhlError("countermodel bound must be >= 0")
    diags = well_formed(seq, theory.signature)
    if diags:
        raise PhlError("ill-formed sequent: " + "; ".join(map(str, diags)))
    if max_work is None:
        max_work = DEFAULT_WORK_BUDGET
    models = iter_models(theory, model_size)

    def run(work: int):
        return saturate(theory, seq.context, seq.premise, depth,
                        goal=seq.conclusion, max_work=work)

    g, saturated, exhausted, reached = run(
        max_work // FIRST_SLICE if model_size > 0 else max_work)
    if exhausted and model_size > 0:
        if not reached:
            found = _countermodel(itertools.islice(models, FIRST_MODELS), seq)
            if found is not None:
                return found
        g, saturated, exhausted, reached = run(max_work)
    if reached:
        return Proved(tuple(g.trace), SaturationStatus(saturated, depth))
    if saturated:
        p = ModelPresentation(theory, seq.context, seq.premise,
                              SaturationStatus(True, depth), g)
        witness = p.generic_tuple
        return Refuted(p.structure, witness,
                       "generic tuple of the saturated term model")
    found = _countermodel(models, seq)
    if found is not None:
        return found
    cause = (f"work budget of {max_work} axiom instances exhausted"
             if exhausted else f"saturation truncated at depth {depth}")
    return UnknownVerdict(f"{cause} and no countermodel with at most "
                          f"{model_size} elements per sort")
