"""Exact finite-precision linear algebra over the p-adic numbers.

A matrix is stored as an integral residue grid modulo p^N together with a
single global power-of-p shift, so the mathematical matrix is
p^shift * (integral part).  Singular numbers of the mathematical matrix are
the singular numbers of the integral part plus the shift, componentwise.

An entry whose residue is 0 but is not flagged as an exact zero only means
"zero to precision N".  Every algorithm here either certifies its answer
from the stored digits or raises PrecisionExhausted; it never guesses.

minor_profile_masks certifies a row-subset minor-valuation profile, and
_sn_scaled_rows, the one profile reader, turns it into singular numbers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import (
    DenominatorNotInvertible,
    DimensionMismatch,
    IndexOutOfRange,
    InequalityViolated,
    PrecisionExhausted,
    SingularMatrix,
)

INFINITY = math.inf
# the most rows minor_profile_masks (and so the trajectory engine) handles
MAX_PROFILE_ROWS = 6

Rational = int | Fraction
IntVector = tuple[int, ...]


@dataclass(frozen=True)
class Prime:
    """A prime below 2^32, verified at construction by trial division."""

    p: int

    def __post_init__(self) -> None:
        p = self.p
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"not a prime: {p!r}")
        if p >= 2**32:
            raise ValueError(f"p = {p} is too large: primes must be below 2^32")
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise ValueError(f"not a prime: {p}")
            d += 1

    def __int__(self) -> int:
        return self.p


@lru_cache(maxsize=256, typed=True)
def _p_int(p: Prime | int) -> int:
    """The prime as an int; a plain int is validated once (typed: not 2.0)."""
    if isinstance(p, Prime):
        return p.p
    Prime(p)  # validate
    return p


def valuation(x: Rational, p: Prime | int) -> int | float:
    """p-adic valuation of a rational number; math.inf for 0."""
    pi = _p_int(p)
    if x == 0:
        return INFINITY
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    v = 0
    while num % pi == 0:
        num //= pi
        v += 1
    while den % pi == 0:
        den //= pi
        v -= 1
    return v


def _int_valuation(r: int, p: int) -> int:
    """Valuation of a nonzero integer."""
    if p == 2:
        return (r & -r).bit_length() - 1
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return v


@dataclass(frozen=True)
class PadicScalar:
    """One entry of a matrix: a residue mod p^precision plus an exact-zero flag.

    A residue of 0 without the flag means the value is 0 to the stored
    precision only; its valuation is not determined by the digits we hold.
    """

    residue: int
    precision: int
    is_exact_zero: bool = False

    def __post_init__(self) -> None:
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if self.is_exact_zero and self.residue != 0:
            raise ValueError("exact zero must have residue 0")
        if self.residue < 0:
            raise ValueError("residue must be nonnegative")

    def valuation(self, p: Prime | int) -> int | float:
        if self.is_exact_zero:
            return INFINITY
        if self.residue == 0:
            raise PrecisionExhausted(
                f"residue is 0 mod p^{self.precision}; valuation >= {self.precision} unknown"
            )
        return _int_valuation(self.residue, _p_int(p))


@dataclass(frozen=True)
class Signature:
    """A non-increasing tuple of integers; the index object used everywhere."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(x) for x in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be non-increasing: {parts}")

    @classmethod
    def zeros(cls, n: int) -> "Signature":
        return cls((0,) * n)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    @property
    def weight(self) -> int:
        """Sum of the parts."""
        return sum(self.parts)

    @property
    def n_stat(self) -> int:
        """Sum of (i-1) * part_i over 1-based positions i."""
        return sum(i * x for i, x in enumerate(self.parts))

    def multiplicities(self) -> dict[int, int]:
        return Counter(self.parts)

    def shifted(self, c: int) -> "Signature":
        return Signature(tuple(x + c for x in self.parts))

    def spread(self) -> int:
        return self.parts[0] - self.parts[-1] if self.parts else 0


@dataclass(frozen=True)
class PadicMatrix:
    """rows x cols residues mod p^precision with one global power-of-p shift."""

    p: int
    precision: int
    shift: int
    residues: tuple[tuple[int, ...], ...]
    exact_zeros: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if not self.residues or not self.residues[0]:
            raise ValueError("matrix must be nonempty")
        width = len(self.residues[0])
        if any(len(row) != width for row in self.residues):
            raise ValueError("ragged rows")
        mod = self.p**self.precision
        for row in self.residues:
            for r in row:
                if not 0 <= r < mod:
                    i, j = next(
                        (i, j)
                        for i, row in enumerate(self.residues)
                        for j, r in enumerate(row)
                        if not 0 <= r < mod
                    )
                    raise ValueError(f"residue out of range at ({i},{j})")
        for i, j in self.exact_zeros:
            if self.residues[i][j] != 0:
                raise ValueError(f"exact zero with nonzero residue at ({i},{j})")

    @property
    def rows(self) -> int:
        return len(self.residues)

    @property
    def cols(self) -> int:
        return len(self.residues[0])

    def entry(self, i: int, j: int) -> PadicScalar:
        """0-based entry of the integral part (the stored residues)."""
        return PadicScalar(
            self.residues[i][j], self.precision, (i, j) in self.exact_zeros
        )

    @classmethod
    def identity(cls, n: int, p: Prime | int, precision: int) -> "PadicMatrix":
        pi = _p_int(p)
        res = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        zeros = frozenset((i, j) for i in range(n) for j in range(n) if i != j)
        return cls(pi, precision, 0, res, zeros)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "precision": self.precision,
            "shift": self.shift,
            "entries": [[str(r) for r in row] for row in self.residues],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PadicMatrix":
        res = tuple(tuple(int(s) for s in row) for row in obj["entries"])
        return cls(int(obj["p"]), int(obj["precision"]), int(obj.get("shift", 0)), res)


def reduce(
    entries: list[list[Rational]], p: Prime | int, precision: int
) -> PadicMatrix:
    """Build a PadicMatrix from exact rational entries.

    The shift is the minimum valuation over nonzero entries (0 if all are
    zero); residues are entry / p^shift reduced mod p^precision.
    """
    pi = _p_int(p)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    fracs = [[Fraction(x) for x in row] for row in entries]
    vals = [valuation(x, pi) for row in fracs for x in row if x != 0]
    shift = min(vals) if vals else 0
    mod = pi**precision
    res: list[tuple[int, ...]] = []
    zeros: set[tuple[int, int]] = set()
    for i, row in enumerate(fracs):
        out_row: list[int] = []
        for j, x in enumerate(row):
            if x == 0:
                out_row.append(0)
                zeros.add((i, j))
                continue
            y = x / Fraction(pi) ** shift
            num, den = y.numerator, y.denominator
            if den % pi == 0:
                raise DenominatorNotInvertible(
                    f"entry ({i},{j}) has denominator divisible by {pi} after shift"
                )
            out_row.append(num * pow(den, -1, mod) % mod)
        res.append(tuple(out_row))
    return PadicMatrix(pi, precision, int(shift), tuple(res), frozenset(zeros))


def matmul(a: PadicMatrix, b: PadicMatrix) -> PadicMatrix:
    """Product at the smaller of the two precisions; shifts add.

    The caller is responsible for precision adequacy of downstream queries.
    """
    if a.p != b.p:
        raise DimensionMismatch("mismatched primes")
    if a.cols != b.rows:
        raise DimensionMismatch(f"inner dimensions {a.cols} != {b.rows}")
    n = min(a.precision, b.precision)
    arows, bcols = a.rows, b.cols
    res = tuple(map(tuple, _mul_grids(a.residues, b.residues, a.p**n)))
    zeros: set[tuple[int, int]] = set()
    if a.exact_zeros or b.exact_zeros:
        az, bz = a.exact_zeros, b.exact_zeros
        for i in range(arows):
            for j in range(bcols):
                if all(
                    (i, k) in az or (k, j) in bz for k in range(a.cols)
                ):
                    zeros.add((i, j))
    return PadicMatrix(a.p, n, a.shift + b.shift, res, frozenset(zeros))


def corner(a: PadicMatrix, i: int) -> PadicMatrix:
    """Submatrix of the last rows - i + 1 rows and all columns (1-based i)."""
    if not 1 <= i <= a.rows:
        raise IndexOutOfRange(f"corner index {i} for {a.rows} rows")
    start = i - 1
    res = a.residues[start:]
    zeros = a.exact_zeros
    if zeros:
        zeros = frozenset((r - start, c) for (r, c) in zeros if r >= start)
    return PadicMatrix(a.p, a.precision, a.shift, res, zeros)


def delete_row(a: PadicMatrix, r: int) -> PadicMatrix:
    """Remove the r-th row (1-based)."""
    if not 1 <= r <= a.rows:
        raise IndexOutOfRange(f"row {r} for {a.rows} rows")
    if a.rows == 1:
        raise DimensionMismatch("cannot delete the only row")
    idx = r - 1
    res = a.residues[:idx] + a.residues[idx + 1 :]
    zeros = frozenset(
        (i if i < idx else i - 1, j) for (i, j) in a.exact_zeros if i != idx
    )
    return PadicMatrix(a.p, a.precision, a.shift, res, zeros)


def diag_signature(
    lam: Signature,
    rows: int,
    cols: int,
    p: Prime | int,
    precision: int,
) -> PadicMatrix:
    """Rectangular diagonal matrix with entries p^lam_i.  The smallest part
    is the shift, so the stored grid is diag(p^(lam - shift)) and the
    precision must exceed lam's spread."""
    pi = _p_int(p)
    if rows > cols:
        raise DimensionMismatch("rows must be <= cols")
    if len(lam) != rows:
        raise DimensionMismatch("len(signature) must equal rows")
    shift = lam[len(lam) - 1]
    if lam[0] - shift >= precision:
        raise PrecisionExhausted(
            f"p^{lam[0] - shift} is 0 mod p^{precision}; raise the precision"
        )
    res = tuple(
        tuple(pi ** (lam[i] - shift) if i == j else 0 for j in range(cols))
        for i in range(rows)
    )
    zeros = frozenset(
        (i, j) for i in range(rows) for j in range(cols) if i != j
    )
    return PadicMatrix(pi, precision, shift, res, zeros)


@lru_cache(maxsize=256)
def _column_scaling(
    parts: tuple[int, ...], p: int, precision: int
) -> tuple[int, tuple[int, ...], int]:
    """The shift, column scales p^(part - shift) and modulus p^precision
    of _scale_columns for the signature with these parts."""
    shift = parts[-1]
    return shift, tuple(p ** (x - shift) for x in parts), p**precision


@lru_cache(maxsize=256)
def _certified_precision(parts: tuple[int, ...], base: int) -> int:
    """The precision a draw of U * diag(p^(lam - shift)) * V, with U and V
    in the integral group, starts at for the signature with these parts:
    weight(lam - shift) + 1, or spread + base when that is no more.

    By Cauchy-Binet the profile entry of rows I is the minimum over J of
    v(det U[I, J]) + (sum of lam - shift over J), and some J gives a unit
    minor of U.  So every profile entry is at most weight(lam - shift),
    every row corner's singular numbers are at most the spread, and
    weight + 1 digits certify them all."""
    shift = parts[-1]
    return min(sum(parts) - len(parts) * shift + 1, parts[0] - shift + base)


def _scale_columns(
    u, lam: Signature, p: int, precision: int
) -> tuple[list[list[int]], int]:
    """U * diag(p^(lam - shift)) mod p^precision and its shift, the
    smallest part of lam: a step law lam + c gives the same grid as lam,
    with the shift raised by c."""
    shift, scale, mod = _column_scaling(lam.parts, p, precision)
    out = []
    for row in u:
        out.append([x * s % mod for x, s in zip(row, scale)])
    return out, shift


def _mul_grids(a, b, mod: int) -> list[list[int]]:
    """The product of two residue grids mod `mod`."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % mod for col in cols] for row in a]


# ---------------------------------------------------------------------------
# Singular numbers via p-adic Gaussian elimination
# ---------------------------------------------------------------------------


def _eliminate_pivot_valuations(
    grid: list[list[int]],
    zeros: frozenset[tuple[int, int]],
    p: int,
    precision: int,
) -> list[int]:
    """Pivot valuations of an integral residue grid by Gaussian elimination.

    At every stage the minimum-valuation entry among the remaining rows and
    columns is the pivot (ties broken by smallest (row, col)); the stage
    valuation is factored out of the remaining submatrix, so the working
    precision only shrinks by the valuation spread, not by the total weight.
    An entry stays an exact zero while no row operation can make it nonzero.
    """
    rows = len(grid)
    cols = len(grid[0])
    if rows > cols:
        raise DimensionMismatch("rows must be <= cols")
    work = [list(row) for row in grid]
    zeros = set(zeros)
    live_rows = list(range(rows))
    live_cols = list(range(cols))
    n_eff = precision
    base = 0
    pivots: list[int] = []
    for _ in range(rows):
        vmin: int | None = None
        pos: tuple[int, int] | None = None
        for i in live_rows:
            wrow = work[i]
            for j in live_cols:
                r = wrow[j]
                if r == 0:
                    continue
                if r % p:
                    # a unit: no entry has a smaller valuation, and the
                    # scan order breaks ties, so the search is over
                    vmin, pos = 0, (i, j)
                    break
                v = _int_valuation(r, p)
                if vmin is None or v < vmin:
                    vmin, pos = v, (i, j)
            if vmin == 0:
                break
        if vmin is None:
            if all((i, j) in zeros for i in live_rows for j in live_cols):
                raise SingularMatrix(
                    "remaining block is exactly zero but full rank was required"
                )
            raise PrecisionExhausted(
                f"remaining block is 0 mod p^{n_eff}; raise the precision"
            )
        if vmin >= n_eff:
            raise PrecisionExhausted("pivot valuation reaches working precision")
        # factor p^vmin out of the remaining block; all entries qualify
        if vmin:
            pv = p**vmin
            for i in live_rows:
                wrow = work[i]
                for j in live_cols:
                    wrow[j] //= pv
            n_eff -= vmin
            base += vmin
        pivots.append(base)
        pi_, pj = pos
        prow = work[pi_]
        live_rows.remove(pi_)
        live_cols.remove(pj)
        if live_rows:
            mod = p**n_eff
            inv = pow(prow[pj], -1, mod)
        for i in live_rows:
            wrow = work[i]
            if zeros and (i, pj) not in zeros:
                # the row's multiplier may be nonzero, so an exact zero
                # survives only above an exact zero of the pivot row
                for j in live_cols:
                    if (pi_, j) not in zeros:
                        zeros.discard((i, j))
            f = wrow[pj] * inv % mod
            if f:
                for j in live_cols:
                    wrow[j] = (wrow[j] - f * prow[j]) % mod
        if n_eff < 1:
            raise PrecisionExhausted("working precision exhausted")
    return pivots


def smith_singular_numbers(a: PadicMatrix) -> Signature:
    """Singular numbers (non-increasing) of a full-row-rank matrix."""
    pivots = _eliminate_pivot_valuations(a.residues, a.exact_zeros, a.p, a.precision)
    parts = tuple(sorted((v + a.shift for v in pivots), reverse=True))
    return Signature(parts)


# ---------------------------------------------------------------------------
# Singular numbers via minors (independent oracle, and the profile used by
# the process engine; _sn_scaled_rows reads both).  Determinants are
# first-row cofactor expansions of the residues mod p^N on row and column
# bitmasks, planned once per shape; they share no code with elimination.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _profile_plan(rows: int, cols: int) -> tuple:
    """Cofactor plan of every square minor of a rows x cols grid.

    One entry (R, r0, R without r0, terms) per nonempty row mask R, by
    size, r0 being the lowest row of R.  terms holds, for each column mask
    C of the size of R, the expansion of det(R, C) along row r0 as
    (c, C without c, sign) triples:
    det(R, C) = sum of sign * grid[r0][c] * det(R without r0, C without c),
    where the empty minor det(0, 0) is 1.
    """
    by_size: list[list[int]] = [[] for _ in range(cols + 1)]
    for cm in range(1, 1 << cols):
        by_size[cm.bit_count()].append(cm)
    plan = []
    for rm in sorted(range(1, 1 << rows), key=int.bit_count):
        terms = tuple(
            (
                cm,
                tuple(
                    (c, cm & ~(1 << c), -1 if t % 2 else 1)
                    for t, c in enumerate(_bits(cm))
                ),
            )
            for cm in by_size[rm.bit_count()]
        )
        plan.append((rm, _bits(rm)[0], rm & (rm - 1), terms))
    return tuple(plan)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def minor_profile_masks(
    grid,
    p: int,
    precision: int,
    zeros: frozenset[tuple[int, int]] = frozenset(),
) -> list[int | None]:
    """For every nonempty row subset (bitmask index), the minimum valuation
    over all square minors drawn from exactly those rows.

    This determines the singular numbers of every diag(p^d) * (row
    selection): selecting rows I multiplies each minor by p^(sum of d over
    I), so per-row-subset minima are enough.  Entry None marks a subset all
    of whose minors are exactly zero; an uncertifiable subset (all minors
    vanish mod p^precision without being exactly zero) raises
    PrecisionExhausted.
    """
    rows = len(grid)
    cols = len(grid[0])
    if rows > MAX_PROFILE_ROWS:
        raise DimensionMismatch(f"profile supported for at most {MAX_PROFILE_ROWS} rows")
    if rows > cols:
        raise DimensionMismatch("rows must be <= cols")
    mod = p**precision
    width = 1 << cols
    gcd = math.gcd
    # dets[R][C]: the minor on row mask R and column mask C, mod p^precision
    dets: list = [None] * (1 << rows)
    dets[0] = [1]
    out: list[int | None] = [None] * (1 << rows)
    for rm, r0, rest, terms in _profile_plan(rows, cols):
        row = grid[r0]
        sub = dets[rest]
        level = [0] * width
        for cm, expansion in terms:
            det = 0
            for c, cc, sign in expansion:
                det += sign * row[c] * sub[cc]
            level[cm] = det % mod
        dets[rm] = level
        # the gcd of the minors has the valuation of the smallest nonzero one
        g = gcd(*level)
        if g:
            out[rm] = (g & -g).bit_length() - 1 if p == 2 else _int_valuation(g, p)
        elif not all(_minor_exactly_zero(zeros, rm, cm) for cm, _ in terms):
            raise PrecisionExhausted(
                f"all minors of rows {_bits(rm)} vanish mod p^{precision}"
            )
    return out


def _minor_exactly_zero(
    zeros: frozenset[tuple[int, int]], rm: int, cm: int
) -> bool:
    """Whether a full row or column of the minor on row mask rm and column
    mask cm consists of exact zeros."""
    if not zeros:
        return False
    rs, cs = _bits(rm), _bits(cm)
    return any(all((i, j) in zeros for j in cs) for i in rs) or any(
        all((i, j) in zeros for i in rs) for j in cs
    )


def _bottom_rows(n: int, j: int) -> list[list[tuple[int, int, int, int]]]:
    """The nonempty subsets of the bottom j of n rows, grouped by size, as
    (submask, row mask, rest, low) tuples: bit b of the submask picks the
    b-th of those rows, the row mask names the same rows among all n, and
    rest is the submask without its lowest row, the low-th."""
    table: list[list[tuple[int, int, int, int]]] = [[] for _ in range(j + 1)]
    for mask in range(1, 1 << j):
        low = (mask & -mask).bit_length() - 1
        table[mask.bit_count()].append((mask, mask << (n - j), mask & (mask - 1), low))
    return table


def _sn_scaled_rows(
    dparts: list[int],
    g: list[int | None],
    shift: int,
    rows: list[list[tuple[int, int, int, int]]],
) -> list[int]:
    """Singular numbers (non-increasing) of diag(p^dparts) * (the rows of
    the table `rows`, see _bottom_rows), from the profile g (see
    minor_profile_masks) and shift of the matrix; dparts[t] scales the t-th
    of those rows.  The engine's updates and the minors oracle all read
    through it.  A size with no entry has only exactly-zero minors."""
    size = len(dparts)
    # dsum over the submasks of the selected rows, each built from its rest
    # one size earlier
    dsum = [0] * (1 << size)
    parts = [0] * size
    s_prev = 0
    for c in range(1, size + 1):
        best = None
        for mask, row_mask, rest, low in rows[c]:
            d = dsum[mask] = dsum[rest] + dparts[low]
            gv = g[row_mask]
            if gv is None:
                continue
            val = d + gv
            if best is None or val < best:
                best = val
        if best is None:
            raise SingularMatrix(f"every {c}x{c} minor of the rows is exactly zero")
        parts[size - c] = best - s_prev + shift
        s_prev = best
    for i in range(size - 1):
        if parts[i] < parts[i + 1]:
            raise InequalityViolated(f"scaled minor sums are not concave: {parts}")
    return parts


def minor_valuation_profile(a: PadicMatrix) -> dict[frozenset[int], int]:
    """Row-subset minor-valuation minima of the integral part, keyed by the
    row subset (shift of the matrix NOT added)."""
    masks = minor_profile_masks(a.residues, a.p, a.precision, a.exact_zeros)
    out: dict[frozenset[int], int] = {}
    for mask in range(1, 1 << a.rows):
        v = masks[mask]
        if v is not None:
            out[frozenset(i for i in range(a.rows) if mask >> i & 1)] = v
    return out


def singular_numbers_via_minors(a: PadicMatrix) -> Signature:
    """Exponential minors oracle: the sum of the k smallest singular numbers
    equals the minimum valuation over all k x k minors, read off the profile
    by the engine's reader with every row unscaled. Test-scale only."""
    g = minor_profile_masks(a.residues, a.p, a.precision, a.exact_zeros)
    rows = a.rows
    return Signature(tuple(_sn_scaled_rows([0] * rows, g, a.shift, _bottom_rows(rows, rows))))
