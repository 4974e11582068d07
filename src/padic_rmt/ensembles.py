"""Samplers for the matrix laws driving the product process.

Supported one-step laws: a bi-invariant law with fixed singular numbers,
an exact-rational mixture of such laws, the top-left corner of a Haar
element of a larger group, matrices with i.i.d. uniform entries, and the
Haar / fixed-signature laws on the symplectic similitude group.

All draws are addressed through an RngStream path, so a trajectory is a
pure function of (master_seed, stream_index, spec), and redrawing a step
at a higher precision extends the same matrix instead of resampling it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, lcm

from .errors import DimensionMismatch
from .padic import MAX_PROFILE_ROWS, PadicMatrix, Prime, Signature, _mul_grids, _p_int, _scale_columns
from .rng import PathLike, RngStream

DEFAULT_PRECISION_BASE = 32


# ---------------------------------------------------------------------------
# Ensemble specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedSN:
    lam: Signature


@dataclass(frozen=True)
class SNMixture:
    components: tuple[tuple[Signature, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        total = Fraction(0)
        for lam, prob in self.components:
            if prob <= 0:
                raise ValueError("mixture probabilities must be positive")
            total += prob
        if total != 1:
            raise ValueError(f"mixture probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class CornerOfHaar:
    """n x n corner of a Haar element of the invertible group of the given
    ambient size; ambient None means i.i.d. uniform entries (infinite limit)."""

    ambient: int | None


@dataclass(frozen=True)
class HaarEntries:
    pass


@dataclass(frozen=True)
class GSpHaar:
    half: int


@dataclass(frozen=True)
class GSpFixedSN:
    lam: Signature


Kind = FixedSN | SNMixture | CornerOfHaar | HaarEntries | GSpHaar | GSpFixedSN


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of the law of one step matrix."""

    p: Prime
    n: int
    kind: Kind
    precision_base: int = DEFAULT_PRECISION_BASE

    def __post_init__(self) -> None:
        if isinstance(self.p, int):
            object.__setattr__(self, "p", Prime(self.p))
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if self.n > MAX_PROFILE_ROWS:
            raise ValueError(f"n = {self.n}: the engine runs at most {MAX_PROFILE_ROWS} rows")
        if self.precision_base < 4:
            raise ValueError("precision_base too small")
        k = self.kind
        if isinstance(k, (FixedSN, GSpFixedSN)) and len(k.lam) != self.n:
            raise ValueError("fixed signature length must equal n")
        if isinstance(k, SNMixture):
            for lam, _ in k.components:
                if len(lam) != self.n:
                    raise ValueError("mixture signature length must equal n")
        if isinstance(k, CornerOfHaar) and k.ambient is not None and k.ambient < self.n:
            raise ValueError("ambient size must be at least n")
        if isinstance(k, (GSpHaar, GSpFixedSN)):
            if self.n % 2:
                raise ValueError("symplectic dimension must be even")
            if isinstance(k, GSpHaar) and 2 * k.half != self.n:
                raise ValueError("GSpHaar half-dimension inconsistent with n")
            if isinstance(k, GSpFixedSN):
                from .symplectic import is_balanced

                if not is_balanced(k.lam):
                    raise ValueError(f"signature {k.lam.parts} is not balanced")

    @property
    def is_symplectic(self) -> bool:
        return isinstance(self.kind, (GSpHaar, GSpFixedSN))

    def finite_sn_law(self) -> dict[Signature, Fraction] | None:
        """Exact law of the step signature, when it has finite support."""
        k = self.kind
        if isinstance(k, (FixedSN, GSpFixedSN)):
            return {k.lam: Fraction(1)}
        if isinstance(k, SNMixture):
            return {lam: prob for lam, prob in k.components}
        if isinstance(k, GSpHaar):
            return {Signature.zeros(self.n): Fraction(1)}
        return None

    def to_json(self) -> dict:
        name, _cls, encode, _decode = _KIND_BY_CLASS[type(self.kind)]
        return {
            "p": self.p.p,
            "n": self.n,
            "precision_base": self.precision_base,
            "kind": {name: encode(self.kind)},
        }

    @classmethod
    def from_json(cls, obj) -> "EnsembleSpec":
        """Parse the JSON form; a malformed object raises ValueError naming
        the field at fault."""
        return cls(**parse_fields(obj, _SPEC_FIELDS, required=("p", "n", "kind")))


def parse_fields(obj, converters: dict, required: tuple = ()) -> dict:
    """{key: convert(obj[key])} for each key of converters that the JSON
    object obj has.  Anything but an object, a key without a converter, a
    missing required key, or a value its converter rejects raises
    ValueError naming what is wrong."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, not {obj!r}")
    for key in obj:
        if key not in converters:
            raise ValueError(f"unknown field {key!r}")
    out = {}
    for key, convert in converters.items():
        if key not in obj:
            if key in required:
                raise ValueError(f"missing field {key!r}")
            continue
        try:
            out[key] = convert(obj[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"field {key!r}: {exc}") from None
    return out


def json_int(x) -> int:
    """A JSON integer; true, false, fractional numbers and strings are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, not {x!r}")
    return x


def json_number(x) -> int | float:
    """A finite JSON number; true, false, NaN, the infinities and strings
    are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not isfinite(x):
        raise ValueError(f"expected a finite number, not {x!r}")
    return x


def json_bool(x) -> bool:
    """A JSON true or false; no other value is read as a truth value."""
    if not isinstance(x, bool):
        raise ValueError(f"expected true or false, not {x!r}")
    return x


def _decode_kind(obj) -> Kind:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"expected an object with exactly one entry, not {obj!r}")
    ((name, payload),) = obj.items()
    if name not in _KIND_BY_NAME:
        raise ValueError(f"unknown ensemble kind {name!r}")
    return _KIND_BY_NAME[name][3](payload)


def _sig(xs) -> Signature:
    """Signature parts: JSON integers, or integer strings as documented."""
    if not isinstance(xs, list):
        raise ValueError(f"expected a list of signature parts, not {xs!r}")
    return Signature(tuple(_sig_part(x) for x in xs))


def _sig_part(x) -> int:
    if isinstance(x, str) and x.removeprefix("-").isdecimal():
        return int(x)
    return json_int(x)


def _sig_json(lam: Signature) -> list[str]:
    return [str(x) for x in lam]


def _probability(x) -> Fraction:
    """A mixture probability: an exact-rational string such as "1/2"."""
    if not isinstance(x, str):
        raise ValueError(f"expected an exact-rational string, not {x!r}")
    return Fraction(x)


def _haar_entries(x) -> HaarEntries:
    """HaarEntries has no parameters: its payload is an empty JSON object."""
    if x != {}:
        raise ValueError(f"expected {{}}, not {x!r}")
    return HaarEntries()


# one entry per kind: (JSON name, class, payload encoder, payload decoder)
_KIND_CODECS = (
    ("FixedSN", FixedSN, lambda k: _sig_json(k.lam), lambda x: FixedSN(_sig(x))),
    (
        "SNMixture",
        SNMixture,
        lambda k: [[_sig_json(lam), str(prob)] for lam, prob in k.components],
        lambda x: SNMixture(tuple((_sig(lam), _probability(prob)) for lam, prob in x)),
    ),
    (
        "CornerOfHaar",
        CornerOfHaar,
        lambda k: "infinity" if k.ambient is None else k.ambient,
        lambda x: CornerOfHaar(None if x in ("infinity", None) else json_int(x)),
    ),
    ("HaarEntries", HaarEntries, lambda k: {}, _haar_entries),
    ("GSpHaar", GSpHaar, lambda k: k.half, lambda x: GSpHaar(json_int(x))),
    ("GSpFixedSN", GSpFixedSN, lambda k: _sig_json(k.lam), lambda x: GSpFixedSN(_sig(x))),
)
_KIND_BY_CLASS = {codec[1]: codec for codec in _KIND_CODECS}
_KIND_BY_NAME = {codec[0]: codec for codec in _KIND_CODECS}
_SPEC_FIELDS = {
    "p": lambda x: Prime(json_int(x)),
    "n": json_int,
    "kind": _decode_kind,
    "precision_base": json_int,
}


# ---------------------------------------------------------------------------
# Elementary draws
# ---------------------------------------------------------------------------


def sample_uniform_residue(
    rng: RngStream, p: Prime | int, precision: int, path: PathLike = ("scalar",)
) -> int:
    """One uniform residue in [0, p^precision) with i.i.d. base-p digits."""
    return rng.residue(path, _p_int(p), precision)


def _det_mod_p(rows: list[list[int]], p: int) -> int:
    """Determinant mod p by elimination; rows is consumed."""
    n = len(rows)
    det = 1
    for c in range(n):
        piv = None
        for r in range(c, n):
            if rows[r][c] % p:
                piv = r
                break
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        top = rows[c]
        inv = pow(top[c], -1, p)
        det = det * top[c] % p
        # clear column c below the pivot in place; later pivots read only
        # the columns right of c
        for r in range(c + 1, n):
            row = rows[r]
            f = row[c] * inv % p
            if f:
                for j in range(c + 1, n):
                    row[j] = (row[j] - f * top[j]) % p
    return det % p


def _haar_gl_grid(
    n: int, p: int, precision: int, rng: RngStream, path: PathLike
) -> list[list[int]]:
    """Uniform residues conditioned on invertibility mod p (whole-matrix
    rejection; acceptance is decided by the first digit of every entry, so
    the accepted attempt does not depend on the precision)."""
    nn = n * n
    attempt = 0
    while True:
        first = rng.sliced_first_digits(path, nn, p, attempt)
        if n == 2:
            ok = (first[0] * first[3] - first[1] * first[2]) % p != 0
        elif n == 3:
            a, b, c, d, e, f, g, h, i = first
            ok = (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p != 0
        else:
            ok = _det_mod_p([first[i * n : (i + 1) * n] for i in range(n)], p) != 0
        if ok:
            flat = rng.sliced_residues(path, nn, p, precision, attempt)
            return [flat[i * n : (i + 1) * n] for i in range(n)]
        attempt += 1


def sample_haar_gl(
    n: int,
    p: Prime | int,
    precision: int,
    rng: RngStream,
    path: PathLike = ("haar",),
) -> PadicMatrix:
    """Precision-N truncation of the Haar measure on the integral invertible
    group: uniform residues conditioned on invertibility mod p."""
    pi = _p_int(p)
    grid = _haar_gl_grid(n, pi, precision, rng, path)
    return PadicMatrix(pi, precision, 0, tuple(tuple(row) for row in grid))


def _haar_gsp_grid(
    n: int, p: int, precision: int, rng: RngStream, path: PathLike
) -> tuple[tuple[int, ...], ...]:
    """Residues of a Haar element of the integral similitude group in
    dimension n (even), as _haar_gl_grid gives them for the invertible
    group."""
    from . import symplectic

    return symplectic.sample_haar_gsp(n // 2, p, precision, rng, path).matrix.residues


def sample_bi_invariant(
    lam: Signature,
    rows: int,
    cols: int,
    p: Prime | int,
    precision: int | None,
    rng: RngStream,
    path: PathLike = ("bi",),
) -> PadicMatrix:
    """One draw U * diag(p^lam) * V, with independent Haar U and V, from the
    unique bi-invariant law with the given singular numbers. Default
    precision: signature spread + DEFAULT_PRECISION_BASE."""
    pi = _p_int(p)
    if precision is None:
        precision = lam.spread() + DEFAULT_PRECISION_BASE
    if rows > cols or len(lam) != rows:
        raise DimensionMismatch("need len(lam) == rows <= cols")
    u = _haar_gl_grid(rows, pi, precision, rng, path + ("U",))
    ud, shift = _scale_columns(u, lam, pi, precision)
    v = _haar_gl_grid(cols, pi, precision, rng, path + ("V",))
    # the rectangular diag(p^lam) keeps only the first `rows` rows of V
    grid = _mul_grids(ud, v[:rows], pi**precision)
    return PadicMatrix(pi, precision, shift, tuple(tuple(r) for r in grid))


def sample_corner_of_haar(
    n: int,
    m: int,
    ambient: int | float | None,
    p: Prime | int,
    precision: int,
    rng: RngStream,
    path: PathLike = ("corner",),
) -> PadicMatrix:
    """Top n x m block of a Haar element of the ambient group; an infinite
    ambient size degenerates to i.i.d. uniform entries."""
    pi = _p_int(p)
    ambient = None if ambient in (None, inf) else int(ambient)
    if ambient is not None and not n <= m <= ambient:
        raise DimensionMismatch("need n <= m <= ambient")
    grid = _corner_grid(n, m, ambient, pi, precision, rng, path)
    return PadicMatrix(pi, precision, 0, tuple(tuple(r) for r in grid))


def _corner_grid(
    n: int,
    m: int,
    ambient: int | None,
    p: int,
    precision: int,
    rng: RngStream,
    path: PathLike,
) -> list[list[int]]:
    """Residues of the top n x m block of a Haar element of the ambient
    group; ambient None means i.i.d. uniform entries."""
    if ambient is None:
        flat = rng.sliced_residues(path, n * m, p, precision)
        return [flat[i * m : (i + 1) * m] for i in range(n)]
    big = _haar_gl_grid(ambient, p, precision, rng, path)
    return [row[:m] for row in big[:n]]


def _mixture_pick(
    components: tuple[tuple[Signature, Fraction], ...],
    rng: RngStream,
    path: PathLike,
) -> Signature:
    denom = lcm(*(prob.denominator for _, prob in components))
    x = rng.uniform_int(path, denom)
    acc = 0
    for lam, prob in components:
        acc += prob.numerator * (denom // prob.denominator)
        if x < acc:
            return lam
    raise AssertionError("mixture probabilities did not cover [0,1)")


# ---------------------------------------------------------------------------
# Step-matrix dispatch
# ---------------------------------------------------------------------------


def step_signature(
    spec: EnsembleSpec, rng: RngStream, step: int = 0
) -> Signature | None:
    """Singular numbers of step `step` (a mixture draws its pick here), or
    None for the corner and i.i.d.-entries laws, whose singular numbers are
    random."""
    k = spec.kind
    if isinstance(k, (FixedSN, GSpFixedSN)):
        return k.lam
    if isinstance(k, SNMixture):
        return _mixture_pick(k.components, rng, ("step", step, "mix"))
    if isinstance(k, GSpHaar):
        return Signature.zeros(spec.n)
    if isinstance(k, (CornerOfHaar, HaarEntries)):
        return None
    raise TypeError(f"unknown kind {k!r}")


def step_grid(
    spec: EnsembleSpec,
    rng: RngStream,
    step: int = 0,
    precision: int | None = None,
    lam: Signature | None = None,
) -> tuple[list[list[int]], int, int]:
    """The engine's draw as raw (grid, shift, precision).

    For the bi-invariant kinds this is the left factor U * diag(p^lam) of
    the step matrix U * diag(p^lam) * V, with Haar U (of the invertible
    group, or of the similitude group for GSpFixedSN) drawn at
    ("step", step, "U") and the smallest part of lam as the shift: by
    Cauchy-Binet, right multiplication by V in the integral group changes
    no row-subset minor valuation, so both have the profile the engine
    reads.  The other kinds give the whole step matrix.  A caller that has
    already drawn the step's signature with step_signature passes it as
    `lam`.  The default precision is the signature's spread (0 when it is
    random) plus the spec's base."""
    p = spec.p.p
    n = spec.n
    path: PathLike = ("step", step)
    k = spec.kind
    if lam is None:
        lam = step_signature(spec, rng, step)
    N = precision or (0 if lam is None else lam.spread()) + spec.precision_base
    if isinstance(k, (CornerOfHaar, HaarEntries)):
        ambient = k.ambient if isinstance(k, CornerOfHaar) else None
        return _corner_grid(n, n, ambient, p, N, rng, path), 0, N
    # looked up at call time, so that a wrapped module attribute is seen
    haar = _haar_gsp_grid if spec.is_symplectic else _haar_gl_grid
    if isinstance(k, GSpHaar):
        return haar(n, p, N, rng, path), 0, N
    grid, shift = _scale_columns(haar(n, p, N, rng, path + ("U",)), lam, p, N)
    return grid, shift, N


def draw_step_matrix(
    spec: EnsembleSpec,
    rng: RngStream,
    step: int = 0,
    precision: int | None = None,
) -> PadicMatrix:
    """One i.i.d. sample of the step matrix. Identical (rng, spec, step,
    precision) always return the same matrix; a larger precision returns the
    same matrix carried to more digits.  It is step_grid's draw times, for
    the bi-invariant kinds, the right factor V drawn at ("step", step, "V"):
    a Haar element of the integral invertible group, or of the similitude
    group for GSpFixedSN."""
    p = spec.p.p
    k = spec.kind
    grid, shift, N = step_grid(spec, rng, step, precision)
    if isinstance(k, (FixedSN, SNMixture, GSpFixedSN)):
        haar = _haar_gsp_grid if spec.is_symplectic else _haar_gl_grid
        v = haar(spec.n, p, N, rng, ("step", step, "V"))
        grid = _mul_grids(grid, v, p**N)
    return PadicMatrix(p, N, shift, tuple(tuple(r) for r in grid))
