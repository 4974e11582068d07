"""The coupled pair of integer sequences driven by one matrix stream.

Per step the same random matrix updates both
  * the product sequence lam(k): singular numbers of diag(p^lam(k-1)) * A_k,
    distributed like the singular numbers of the k-fold product, and
  * the corner-sum sequence v(k): cumulative corner weights
    v_i(k)+...+v_n(k) = sum over j <= k of |SN(A_j corner i)|,
which involves no matrix products at all.

The engine advances both sequences from the step matrix's row-subset
minor-valuation profile: a minor that picks rows I of diag(p^d) * A has
valuation (sum of d over I) + (valuation of the matching minor of A), so
the update is exact integer arithmetic once the profile is certified.
The profile reader and its row tables (padic._sn_scaled_rows and
padic._bottom_rows) live beside the kernel that builds the profile.
The public product_step keeps the direct route (scale, multiply,
eliminate) and the two routes are checked against each other in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ensembles import EnsembleSpec, draw_step_matrix, step_grid, step_signature
from .errors import ConstraintViolated, PrecisionExhausted
from .padic import (
    IntVector,
    PadicMatrix,
    Signature,
    _bottom_rows,
    _certified_precision,
    _sn_scaled_rows,
    corner,
    diag_signature,
    matmul,
    minor_profile_masks,
    smith_singular_numbers,
)
from .rng import RngStream

MAX_PRECISION_DOUBLINGS = 6


# ---------------------------------------------------------------------------
# Step sources
# ---------------------------------------------------------------------------


class EnsembleSource:
    """Profiles of the steps of an EnsembleSpec: draws the engine's factor
    of each step (see step_grid) and certifies its profile, doubling the
    precision (same matrix, more digits) when needed.  A step whose
    signature has no spread is a unit and needs no draw; any other known
    signature starts at padic._certified_precision, which certifies at
    once unless spread + base is the smaller."""

    def __init__(self, spec: EnsembleSpec):
        self.spec = spec
        self.n = spec.n
        self.p = spec.p.p
        # profile of any element of the integral invertible group
        self.unit_profile: list[int | None] = [None] + [0] * ((1 << self.n) - 1)

    def describe(self) -> dict:
        return {"ensemble": self.spec.to_json()}

    def matrix(self, k: int, rng: RngStream, precision: int | None = None) -> PadicMatrix:
        return draw_step_matrix(self.spec, rng, k, precision)

    def profile(
        self, k: int, rng: RngStream
    ) -> tuple[list[int | None], int, list[tuple[int, int, int]]]:
        lam = step_signature(self.spec, rng, k)
        precision: int | None = None
        if lam is not None:
            parts = lam.parts
            if parts[0] == parts[-1]:
                # lam - shift is all zeros: the step is a unit, nothing to draw
                return self.unit_profile, parts[0], []
            precision = _certified_precision(parts, self.spec.precision_base)
        escalations: list[tuple[int, int, int]] = []
        for _ in range(MAX_PRECISION_DOUBLINGS + 1):
            grid, shift, n_used = step_grid(self.spec, rng, k, precision, lam)
            try:
                g = minor_profile_masks(grid, self.p, n_used)
                return g, shift, escalations
            except PrecisionExhausted:
                precision = n_used * 2
                escalations.append((k, n_used, precision))
        raise PrecisionExhausted(
            f"precision escalation cap reached: step {k}: profile uncertified"
            f" after {MAX_PRECISION_DOUBLINGS} doublings"
        )


class CounterexampleSource:
    """Deterministic 2 x 2 steps diag(1, p^(2^(k-1))), whose corner-sum and
    product sequences drift apart without bound."""

    def __init__(self, p: int = 2):
        self.n = 2
        self.p = p

    def describe(self) -> dict:
        return {"deterministic": "diag(1, p^(2^(k-1)))", "p": self.p}

    def profile(self, k, rng):
        e = 2 ** (k - 1)
        # rows: (1, 0) and (0, p^e); the only 2x2 minor is the diagonal one
        return [None, 0, e, e], 0, []

    def matrix(self, k: int, rng, precision: int | None = None) -> PadicMatrix:
        e = 2 ** (k - 1)
        if precision is None:
            precision = e + 8
        if precision <= e:
            raise PrecisionExhausted(f"step {k} needs precision > {e}")
        zeros = frozenset({(0, 1), (1, 0)})
        return PadicMatrix(
            self.p, precision, 0, ((1, 0), (0, self.p**e)), zeros
        )


def as_source(spec_or_source) -> "EnsembleSource | CounterexampleSource":
    if isinstance(spec_or_source, EnsembleSpec):
        return EnsembleSource(spec_or_source)
    return spec_or_source


# ---------------------------------------------------------------------------
# Trajectory records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryStep:
    """State after step k.

    split_margins holds the margin values of the transition into this step,
    m_i(k-1) = v_i(k-1) - v_(i+1)(k) + SN(A_k)_n for i = 1..n-1.
    """

    k: int
    lam: Signature
    v: IntVector
    corner_weights: IntVector
    sn_last: int
    split_margins: IntVector
    interpolation: tuple[IntVector, ...] | None = None


@dataclass
class Trajectory:
    n: int
    steps: list[TrajectoryStep]
    escalations: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def k_max(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# Profile-based exact updates
# ---------------------------------------------------------------------------


def iter_coupled_steps(
    source,
    k_max: int,
    rng: RngStream,
    with_interpolation: bool = False,
    escalation_log: list | None = None,
):
    """Yield (k, lam, v, w, sn_last, margins_prev, interp) tuples.

    lam, v, w are tuples of length n; margins_prev are the n-1 margin values
    of the transition into step k; interp is the tuple of all interpolation
    levels (level j copies the corner-sum sequence above its bottom j
    entries) or None.  The bottom of level n evolves by the product
    recursion on all rows, so level n is the product sequence itself.
    """
    n = source.n
    profile = source.profile
    rows = [_bottom_rows(n, j) for j in range(n + 1)]  # rows[n]: all rows
    all_rows = rows[n]
    # corner i (rows i..n) and its size; the single-row masks
    corners = [((1 << n) - (1 << (i - 1)), n - i + 1) for i in range(1, n + 1)]
    singles = [1 << r for r in range(n)]
    lam = [0] * n
    v = [0] * n
    bottoms = [[0] * j for j in range(n)]  # bottoms[j]: levels 1..n-1
    for k in range(1, k_max + 1):
        g, shift, esc = profile(k, rng)
        if esc and escalation_log is not None:
            escalation_log.extend(esc)
        # corner weights and the smallest singular number of the step matrix
        # (plain loops: at these lengths a comprehension costs more)
        w = []
        for mask, size in corners:
            w.append(g[mask] + size * shift)
        sn_last = min(map(g.__getitem__, singles)) + shift
        # product-sequence update: singular numbers of diag(p^lam) * A
        new_lam = _sn_scaled_rows(lam, g, shift, all_rows)
        # corner-sum update v_i += w_i - w_(i+1), and the margins of this
        # transition
        new_v = []
        for i in range(n - 1):
            new_v.append(v[i] + w[i] - w[i + 1])
        new_v.append(v[n - 1] + w[n - 1])
        margins = []
        for i in range(n - 1):
            margins.append(v[i] - new_v[i + 1] + sn_last)
        interp = None
        if with_interpolation:
            levels = []
            for j in range(1, n):
                bottoms[j] = _sn_scaled_rows(bottoms[j], g, shift, rows[j])
                levels.append(tuple(new_v[: n - j]) + tuple(bottoms[j]))
            levels.append(tuple(new_lam))
            interp = tuple(levels)
            if list(interp[0]) != new_v:
                raise ConstraintViolated(
                    f"step {k}: interpolation level 1 {interp[0]} is not the corner sums {new_v}"
                )
        lam, v = new_lam, new_v
        if sum(lam) != sum(v):
            raise ConstraintViolated(f"step {k}: weight conservation violated")
        yield k, tuple(lam), tuple(v), tuple(w), sn_last, tuple(margins), interp


def run_coupled_trajectory(
    spec_or_source,
    k_max: int,
    rng: RngStream,
    with_interpolation: bool = False,
) -> Trajectory:
    """Materialize the coupled run as a Trajectory (one record per step)."""
    source = as_source(spec_or_source)
    escalations: list[tuple[int, int, int]] = []
    steps: list[TrajectoryStep] = []
    for k, lam, v, w, sn_last, margins, interp in iter_coupled_steps(
        source, k_max, rng, with_interpolation, escalations
    ):
        steps.append(
            TrajectoryStep(
                k=k,
                lam=Signature(lam),
                v=v,
                corner_weights=w,
                sn_last=sn_last,
                split_margins=margins,
                interpolation=interp,
            )
        )
    return Trajectory(n=source.n, steps=steps, escalations=escalations)


# ---------------------------------------------------------------------------
# Direct (scale, multiply, eliminate) operations
# ---------------------------------------------------------------------------


def product_step(lam_prev: Signature, a: PadicMatrix) -> Signature:
    """Singular numbers of diag(p^lam_prev) * A by forming the product.

    diag_signature keeps the smallest part of lam_prev in the shift, so the
    residues only grow with the spread of lam_prev, not its magnitude.
    The precision of A must exceed that spread plus the spread of A's own
    singular numbers; PrecisionExhausted signals a too-low precision.
    """
    n = len(lam_prev)
    if a.rows != n:
        raise ValueError("signature length must match the row count")
    d = diag_signature(lam_prev, n, n, a.p, a.precision)
    return smith_singular_numbers(matmul(d, a))


def corner_weights(a: PadicMatrix) -> IntVector:
    """Weights |SN(corner(A, i))| for i = 1..rows."""
    return tuple(
        smith_singular_numbers(corner(a, i)).weight for i in range(1, a.rows + 1)
    )


@dataclass(frozen=True)
class InterpolatingState:
    """Level j of the interpolating family: the top n-j entries copy the
    corner-sum sequence, the bottom j entries form a signature evolved by
    the product recursion on the (n-j+1)-th corner."""

    j: int
    values: IntVector

    def bottom(self) -> Signature:
        return Signature(self.values[len(self.values) - self.j :])


def interpolation_step(
    state: InterpolatingState, v_next: IntVector, a: PadicMatrix
) -> InterpolatingState:
    """Advance one interpolation level by one step (direct route)."""
    n = a.rows
    j = state.j
    sub = corner(a, n - j + 1)
    new_bottom = product_step(state.bottom(), sub)
    values = tuple(v_next[: n - j]) + new_bottom.parts
    return InterpolatingState(j, values)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitDiagnostics:
    """Running-minimum comparison of each margin series between the first
    quarter and the final half of the run; an upward drift everywhere is the
    finite-run proxy for the sequence being split."""

    series: tuple[tuple[int, ...], ...]
    consistent: bool
    per_index: tuple[bool, ...]


def split_margins(traj: Trajectory) -> SplitDiagnostics:
    n = traj.n
    if traj.k_max < 4:
        raise ValueError("need at least 4 steps to compare run quarters")
    series = tuple(
        tuple(step.split_margins[i] for step in traj.steps) for i in range(n - 1)
    )
    flags = []
    for s in series:
        kq = max(1, len(s) // 4)
        kh = len(s) // 2
        early_min = min(s[:kq])
        late_min = min(s[kh:])
        flags.append(late_min > early_min)
    return SplitDiagnostics(series, all(flags), tuple(flags))


@dataclass(frozen=True)
class EqualDifferenceVerdict:
    precondition_held: bool
    equality_held: bool | None


def check_equal_difference(lam: Signature, a: PadicMatrix, j: int) -> EqualDifferenceVerdict:
    """When the second singular number of diag(p^(last j+1 parts)) * (last
    j+1 rows) stays below the scaled top row, the top singular number's
    increment equals the corner-weight difference of the two corners."""
    n = a.rows
    if not 1 <= j <= n - 1:
        raise ValueError("need 1 <= j <= rows - 1")
    if len(lam) != n:
        raise ValueError("signature length must match the row count")
    top = corner(a, n - j)  # last j+1 rows
    sub = corner(a, n - j + 1)  # last j rows
    lam_top = Signature(lam.parts[n - j - 1 :])
    scaled = product_step(lam_top, top)
    sn_top = smith_singular_numbers(top)
    pre = scaled[1] < lam_top[0] + sn_top[j]
    if not pre:
        return EqualDifferenceVerdict(False, None)
    lhs = scaled[0] - lam_top[0]
    rhs = sn_top.weight - smith_singular_numbers(sub).weight
    return EqualDifferenceVerdict(True, lhs == rhs)


def lyapunov_estimates(traj: Trajectory) -> tuple[Fraction, ...]:
    """Exact per-coordinate averages lam_i(k)/k at the final step."""
    last = traj.steps[-1]
    k = last.k
    return tuple(Fraction(x, k) for x in last.lam.parts)


def literal_product_sn(
    source, k_max: int, rng: RngStream, precision: int
) -> list[Signature]:
    """Singular numbers of the literal k-fold products A_1 * ... * A_k via
    matrix multiplication and elimination; the independent route used to
    validate the coupled engine at small k."""
    source = as_source(source)
    out: list[Signature] = []
    prod: PadicMatrix | None = None
    for k in range(1, k_max + 1):
        a = source.matrix(k, rng, precision)
        prod = a if prod is None else matmul(prod, a)
        out.append(smith_singular_numbers(prod))
    return out
