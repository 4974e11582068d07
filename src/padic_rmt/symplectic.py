"""Support for the symplectic similitude group in even dimension 2n.

The bilinear form is <a, b> = a * Omega * b^T with Gram matrix
Omega = [[0, J], [-J, 0]], J the antidiagonal identity.  An invertible
matrix A belongs to the similitude group when A Omega A^T = mu(A) Omega
for a scalar mu(A); integral elements with unit mu(A) form the maximal
compact subgroup, sampled here by building a uniformly random symplectic
basis one hyperbolic pair at a time and then twisting by a uniform unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstraintViolated, DimensionMismatch, PrecisionExhausted
from .padic import (
    PadicMatrix,
    PadicScalar,
    Prime,
    Signature,
    _int_valuation,
    _mul_grids,
    _p_int,
    _scale_columns,
    smith_singular_numbers,
)
from .rng import PathLike, RngStream


@dataclass(frozen=True)
class SymplecticForm:
    """The standard antisymmetric Gram matrix in dimension 2n."""

    half: int

    @property
    def dim(self) -> int:
        return 2 * self.half

    def gram(self) -> tuple[tuple[int, ...], ...]:
        d = self.dim
        rows = []
        for i in range(d):
            row = [0] * d
            row[d - 1 - i] = 1 if i < self.half else -1
            rows.append(tuple(row))
        return tuple(rows)

    def gram_matrix(self, p: Prime | int, precision: int) -> PadicMatrix:
        pi = _p_int(p)
        mod = pi**precision
        res = tuple(tuple(x % mod for x in row) for row in self.gram())
        zeros = frozenset(
            (i, j) for i in range(self.dim) for j in range(self.dim) if j != self.dim - 1 - i
        )
        return PadicMatrix(pi, precision, 0, res, zeros)


@dataclass(frozen=True)
class GSpElement:
    """A similitude-group element together with its (integral-part) multiplier.

    The mathematical similitude of the element is
    p^(2 * matrix.shift) * similitude.
    """

    matrix: PadicMatrix
    similitude: PadicScalar

    @property
    def half(self) -> int:
        return self.matrix.rows // 2


def is_balanced(lam: Signature) -> bool:
    """Opposite parts must share a common sum: lam_i + lam_(2n+1-i) constant."""
    parts = lam.parts
    d = len(parts)
    if d % 2:
        return False
    s = parts[0] + parts[-1]
    return all(parts[i] + parts[d - 1 - i] == s for i in range(d // 2))


def _apply_gram(a: list[int], half: int, mod: int) -> list[int]:
    """Row vector a * Omega mod p^N."""
    d = 2 * half
    return [
        (a[d - 1 - j] if j >= half else -a[d - 1 - j]) % mod for j in range(d)
    ]


def is_gsp(a: PadicMatrix) -> PadicScalar | None:
    """Similitude of the integral part if A Omega A^T is proportional to
    Omega at working precision, else None."""
    d = a.rows
    if d != a.cols or d % 2:
        raise DimensionMismatch("need a square even-dimensional matrix")
    half = d // 2
    mod = a.p**a.precision
    rows = a.residues
    # the form is alternating: <a, a> = 0 and <b, a> = -<a, b> over the
    # integers, so the pairs i < j decide; <a, b> is the sum over t < half
    # of a_t b_(d-1-t) - a_(d-1-t) b_t
    mirror = [(t, d - 1 - t) for t in range(half)]
    mu: int | None = None
    for i in range(d - 1):
        x = rows[i]
        for j in range(i + 1, d):
            y = rows[j]
            m = sum([x[s] * y[t] - x[t] * y[s] for s, t in mirror]) % mod
            if j == d - 1 - i:
                if mu is None:
                    mu = m
                elif m != mu:
                    return None
            elif m:
                return None
    if not mu:
        raise PrecisionExhausted(
            "pairing matrix vanishes at working precision; similitude unreadable"
        )
    return PadicScalar(mu, a.precision)


def similitude_valuation(el: GSpElement) -> int:
    """Valuation of the mathematical similitude, shift included."""
    return 2 * el.matrix.shift + _int_valuation(el.similitude.residue, el.matrix.p)


def gsp_singular_numbers(el: GSpElement | PadicMatrix) -> Signature:
    """Singular numbers of a similitude-group element; the balanced-pairs
    constraint is asserted exactly."""
    mat = el.matrix if isinstance(el, GSpElement) else el
    lam = smith_singular_numbers(mat)
    if not is_balanced(lam):
        raise ConstraintViolated(
            f"singular numbers {lam.parts} violate the balanced-pairs constraint"
        )
    return lam


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def _reduced_system(
    constraints: list[list[int]], rhs: list[int], p: int, mod: int
) -> tuple[list[list[int]], list[int], list[tuple[int, int]]]:
    """Row-reduce a full-rank-mod-p system to unit pivots (pivot choice and
    reduced coefficients mod p do not depend on the working precision)."""
    m = [row[:] for row in constraints]
    b = rhs[:]
    dim = len(m[0]) if m else 0
    pivots: list[tuple[int, int]] = []
    used: set[int] = set()
    for r in range(len(m)):
        row = m[r]
        for pr, pc in pivots:
            f = row[pc]
            if f:
                prow = m[pr]
                m[r] = row = [(x - f * y) % mod for x, y in zip(row, prow)]
                b[r] = (b[r] - f * b[pr]) % mod
        pc = next((c for c in range(dim) if c not in used and row[c] % p), None)
        if pc is None:
            raise ConstraintViolated("pairing constraints degenerate mod p")
        inv = pow(row[pc], -1, mod)
        m[r] = row = [x * inv % mod for x in row]
        b[r] = b[r] * inv % mod
        pivots.append((r, pc))
        used.add(pc)
    # clear pivot columns above, so each pivot variable reads off directly
    for idx in range(len(pivots) - 1, -1, -1):
        r, pc = pivots[idx]
        prow = m[r]
        for r2 in range(r):
            f = m[r2][pc]
            if f:
                m[r2] = [(x - f * y) % mod for x, y in zip(m[r2], prow)]
                b[r2] = (b[r2] - f * b[r]) % mod
    return m, b, pivots


def _uniform_solution(
    constraints: list[list[int]],
    rhs: list[int],
    dim: int,
    p: int,
    precision: int,
    rng: RngStream,
    path: PathLike,
) -> list[int]:
    """Uniform solution of a unit-pivot linear system mod p^precision: free
    coordinates are i.i.d. uniform residues, pivot coordinates are solved."""
    mod = p**precision
    if not constraints:
        return [rng.residue(path + (c,), p, precision) for c in range(dim)]
    m, b, pivots = _reduced_system(constraints, rhs, p, mod)
    used = {pc for _, pc in pivots}
    x = [0] * dim
    for c in range(dim):
        if c not in used:
            x[c] = rng.residue(path + (c,), p, precision)
    for r, pc in pivots:
        row = m[r]
        acc = b[r]
        for c in range(dim):
            if c != pc and row[c] and x[c]:
                acc -= row[c] * x[c]
        x[pc] = acc % mod
    return x


def _sample_symplectic_rows(
    half: int, p: int, precision: int, rng: RngStream, path: PathLike
) -> list[list[int]]:
    """Uniform element of the integral symplectic group mod p^precision,
    built row pair by row pair: the first member of each hyperbolic pair is
    uniform in the orthogonal complement of the previous pairs (nonzero
    mod p), the second is uniform among its exact partners."""
    dim = 2 * half
    mod = p**precision
    rows: list[list[int] | None] = [None] * dim
    drawn: list[int] = []
    for pair in range(half):
        i, q = pair, dim - 1 - pair
        cons = [_apply_gram(rows[l], half, mod) for l in drawn]
        attempt = 0
        while True:
            v = _uniform_solution(
                cons,
                [0] * len(cons),
                dim,
                p,
                precision,
                rng,
                path + ("v", pair, attempt),
            )
            if any(x % p for x in v):
                break
            attempt += 1
        rows[i] = v
        drawn.append(i)
        cons_w = cons + [_apply_gram(v, half, mod)]
        rhs_w = [0] * len(cons) + [1]
        rows[q] = _uniform_solution(
            cons_w, rhs_w, dim, p, precision, rng, path + ("w", pair)
        )
        drawn.append(q)
    return [r for r in rows if r is not None]


def sample_haar_gsp(
    half: int,
    p: Prime | int,
    precision: int,
    rng: RngStream,
    path: PathLike = ("gsp",),
) -> GSpElement:
    """Uniform element of the integral similitude group mod p^precision:
    a uniform symplectic element times diag(I, u I) for a uniform unit u."""
    pi = _p_int(p)
    dim = 2 * half
    s = _sample_symplectic_rows(half, pi, precision, rng, path)
    u = rng.unit_residue(path + ("unit",), pi, precision)
    mod = pi**precision
    grid = tuple(
        tuple(x * u % mod if j >= half else x for j, x in enumerate(row))
        for row in s
    )
    mat = PadicMatrix(pi, precision, 0, grid)
    sim = is_gsp(mat)
    if sim is None or sim.residue != u:
        raise ConstraintViolated("sampled element fails the similitude identity")
    return GSpElement(mat, sim)


def sample_bi_invariant_gsp(
    lam: Signature,
    p: Prime | int,
    precision: int,
    rng: RngStream,
    path: PathLike = ("gspbi",),
) -> GSpElement:
    """U diag(p^lam) V with independent Haar U, V drawn from path + ("U",)
    and path + ("V",); lam must be balanced.  The smallest part of lam is
    the shift, and diag(p^(lam - shift)) has similitude p^spread, so the
    similitude of the product is u_U * p^spread * u_V from the two Haar
    draws; it is unreadable when the spread reaches the precision."""
    if not is_balanced(lam):
        raise ConstraintViolated(f"signature {lam.parts} is not balanced")
    spread = lam.spread()
    if spread >= precision:
        raise PrecisionExhausted(
            f"p^{spread} is 0 mod p^{precision}; similitude unreadable"
        )
    pi = _p_int(p)
    mod = pi**precision
    u = sample_haar_gsp(len(lam) // 2, pi, precision, rng, path + ("U",))
    v = sample_haar_gsp(len(lam) // 2, pi, precision, rng, path + ("V",))
    ud, shift = _scale_columns(u.matrix.residues, lam, pi, precision)
    grid = tuple(map(tuple, _mul_grids(ud, v.matrix.residues, mod)))
    sim = u.similitude.residue * pi**spread * v.similitude.residue % mod
    return GSpElement(PadicMatrix(pi, precision, shift, grid), PadicScalar(sim, precision))
