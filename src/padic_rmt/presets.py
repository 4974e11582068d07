"""Named step-matrix laws used by the command line and the test suite."""

from __future__ import annotations

from fractions import Fraction

from .ensembles import (
    CornerOfHaar,
    EnsembleSpec,
    FixedSN,
    GSpFixedSN,
    GSpHaar,
    HaarEntries,
    SNMixture,
)
from .padic import Prime, Signature
from .processes import CounterexampleSource


def _spec(p: int, n: int, kind) -> EnsembleSpec:
    return EnsembleSpec(Prime(p), n, kind)


_FACTORIES = {
    # bi-invariant 2x2 steps with singular numbers (1, 0)
    "fixed-10": lambda: _spec(2, 2, FixedSN(Signature((1, 0)))),
    # bi-invariant 3x3 steps with singular numbers (2, 1, 0)
    "fixed-210": lambda: _spec(2, 3, FixedSN(Signature((2, 1, 0)))),
    # fair mixture of signatures (1,0) and (0,0)
    "mixture-half": lambda: _spec(
        2,
        2,
        SNMixture(
            (
                (Signature((1, 0)), Fraction(1, 2)),
                (Signature((0, 0)), Fraction(1, 2)),
            )
        ),
    ),
    # 2x2 corner of a Haar element of the rank-3 group
    "corner-haar-2-3": lambda: _spec(2, 2, CornerOfHaar(3)),
    # 2x2 matrices with i.i.d. uniform integral entries
    "haar-entries-2": lambda: _spec(2, 2, HaarEntries()),
    # symplectic-similitude steps in dimension 4 with signature (1,1,0,0)
    "gsp4-fixed-1100": lambda: _spec(2, 4, GSpFixedSN(Signature((1, 1, 0, 0)))),
    # Haar steps on the dimension-4 integral similitude group
    "gsp4-haar": lambda: _spec(2, 4, GSpHaar(2)),
    # deterministic diverging example: steps diag(1, p^(2^(k-1)))
    "paper-counterexample": lambda: CounterexampleSource(2),
}


def preset_names() -> list[str]:
    return sorted(_FACTORIES)


def build_preset(name: str):
    """EnsembleSpec (or deterministic source) for a named preset."""
    if name not in preset_names():
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return _FACTORIES[name]()
