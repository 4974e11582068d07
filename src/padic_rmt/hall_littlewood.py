"""Exact Hall-Littlewood engine over integer signatures.

The primary evaluator expands skew polynomials over interlacing chains
(branching rule), which has no denominators and therefore works at repeated
and geometric points; the classical symmetrized-sum formula is kept as an
independent oracle for testing, since it needs pairwise distinct points.

Everything here is exact: scalars are Fractions, generating functions in x
are Laurent polynomials with Fraction coefficients, and distribution tables
sum to 1 exactly (or to a certified 1 - tail for truncated tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from .errors import (
    ConstraintViolated,
    InequalityViolated,
    KernelPole,
    NotInterlacing,
    RepeatedPoints,
    ZeroPointWithNegativeWeight,
)
from .padic import Prime, Signature, _p_int

ONE = Fraction(1)
ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Laurent polynomials in one variable
# ---------------------------------------------------------------------------


class UniPoly:
    """Laurent polynomial in one variable with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        self.coeffs: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[int(e)] = c

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls({0: Fraction(c)})

    @classmethod
    def x(cls, power: int = 1, coeff=1) -> "UniPoly":
        return cls({power: Fraction(coeff)})

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = UniPoly()
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        res = UniPoly()
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        return self + (-other if isinstance(other, UniPoly) else UniPoly.constant(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            res = UniPoly()
            if other:
                res.coeffs = {e: c * other for e, c in self.coeffs.items()}
            return res
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = UniPoly()
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def __truediv__(self, other) -> "UniPoly":
        other = Fraction(other)
        res = UniPoly()
        res.coeffs = {e: c / other for e, c in self.coeffs.items()}
        return res

    def __pow__(self, k: int) -> "UniPoly":
        if len(self.coeffs) == 1:
            (e, c), = self.coeffs.items()
            return UniPoly({e * k: c**k})
        if k < 0:
            raise ValueError("negative powers only for monomials")
        out = UniPoly.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        if x == 0 and any(e < 0 for e in self.coeffs):
            raise ZeroPointWithNegativeWeight("evaluation at 0 with a pole")
        return sum((c * x**e for e, c in self.coeffs.items()), ZERO)

    def derivative(self) -> "UniPoly":
        return UniPoly({e - 1: c * e for e, c in self.coeffs.items() if e})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        terms = " + ".join(
            f"({c})*x^{e}" for e, c in sorted(self.coeffs.items())
        )
        return f"UniPoly({terms})"


# ---------------------------------------------------------------------------
# Interlacing combinatorics and the branching weights
# ---------------------------------------------------------------------------


def interlaces(mu: Signature, lam: Signature) -> bool:
    """mu interlaces lam: lam_i >= mu_i >= lam_(i+1), len(mu) = len(lam)-1."""
    if len(mu) != len(lam) - 1:
        return False
    return all(
        lam[i] >= mu[i] >= lam[i + 1] for i in range(len(mu))
    )


def interlacings_below(lam: Signature):
    """All signatures one part shorter that interlace lam."""
    if len(lam) == 0:
        return
    ranges = [range(lam[i + 1], lam[i] + 1) for i in range(len(lam) - 1)]
    for tup in product(*ranges):
        yield Signature(tup)


def psi(lam: Signature, mu: Signature, t: Fraction) -> Fraction:
    """Branching weight: the product of (1 - t^(m_i(mu))) over the integers
    i whose multiplicity grows by one when passing from lam to mu."""
    if not interlaces(mu, lam):
        raise NotInterlacing(f"{mu.parts} does not interlace {lam.parts}")
    t = Fraction(t)
    ml = lam.multiplicities()
    out = ONE
    for i, m in mu.multiplicities().items():
        if m == ml.get(i, 0) + 1:
            out *= 1 - t**m
    return out


@dataclass(frozen=True)
class InterlacingChain:
    """mu = sig_0 interlaced up to sig_k = lam; one signature per length."""

    signatures: tuple[Signature, ...]

    def __post_init__(self) -> None:
        sigs = self.signatures
        for a, b in zip(sigs, sigs[1:]):
            if not interlaces(a, b):
                raise NotInterlacing(f"{a.parts} does not interlace {b.parts}")

    @property
    def links(self) -> int:
        return len(self.signatures) - 1

    def weights(self) -> tuple[int, ...]:
        sigs = self.signatures
        return tuple(
            sigs[i + 1].weight - sigs[i].weight for i in range(self.links)
        )

    def psi_product(self, t: Fraction) -> Fraction:
        out = ONE
        for a, b in zip(self.signatures, self.signatures[1:]):
            out *= psi(b, a, t)
        return out


def enumerate_chains(lam: Signature, mu: Signature, k: int):
    """Every interlacing chain from mu up to lam in exactly k links."""
    if len(lam) - len(mu) != k:
        raise ValueError("k must equal len(lam) - len(mu)")
    if k == 0:
        if lam == mu:
            yield InterlacingChain((mu,))
        return
    for nu in interlacings_below(lam):
        for chain in enumerate_chains(nu, mu, k - 1):
            yield InterlacingChain(chain.signatures + (lam,))


# ---------------------------------------------------------------------------
# Evaluation by the branching rule (level dynamic programming)
# ---------------------------------------------------------------------------


def _point_power(x, wt: int):
    """x^wt for a Fraction or UniPoly point; 0^negative is an error."""
    if wt == 0:
        return ONE
    if isinstance(x, UniPoly):
        return x**wt
    x = Fraction(x)
    if x == 0:
        if wt < 0:
            raise ZeroPointWithNegativeWeight("point 0 with negative weight")
        return ZERO
    return x**wt


def _skew_value(lam: Signature, mu: Signature, points: list, t: Fraction):
    """Sum over chains of (product of point^weight) * (product of branching
    weights); points[i] attaches to the link reaching length len(mu)+i+1."""
    memo: dict[Signature, object] = {mu: ONE}

    def rec(sig: Signature):
        if sig in memo:
            return memo[sig]
        level = len(sig) - len(mu)
        if level <= 0:
            memo[sig] = ZERO
            return ZERO
        x = points[level - 1]
        total = ZERO
        for nu in interlacings_below(sig):
            sub = rec(nu)
            if isinstance(sub, Fraction) and sub == 0:
                continue
            wt = sig.weight - nu.weight
            xp = _point_power(x, wt)
            if isinstance(xp, Fraction) and xp == 0:
                continue
            total = total + psi(sig, nu, t) * xp * sub
        memo[sig] = total
        return total

    return rec(lam)


def hl_skew_eval(
    lam: Signature, mu: Signature, points: list, t: Fraction
) -> Fraction:
    """Skew polynomial at concrete points via the branching rule."""
    if len(points) != len(lam) - len(mu):
        raise ValueError("need len(points) == len(lam) - len(mu)")
    if len(lam) == len(mu):
        return ONE if lam == mu else ZERO
    val = _skew_value(lam, mu, [Fraction(x) for x in points], Fraction(t))
    if not isinstance(val, Fraction):
        raise ConstraintViolated(f"skew value at concrete points is not rational: {val!r}")
    return val


def hl_p_eval(lam: Signature, points: list, t: Fraction) -> Fraction:
    """The polynomial itself (skew over the empty signature).

    More points than parts are allowed for nonnegative signatures, which are
    stable under appending zero parts.
    """
    if len(points) != len(lam):
        if len(points) > len(lam) and (len(lam) == 0 or lam[len(lam) - 1] >= 0):
            lam = Signature(lam.parts + (0,) * (len(points) - len(lam)))
        else:
            raise ValueError("need len(points) == len(lam)")
    return hl_skew_eval(lam, Signature(()), points, t)


def hl_p_symmetrized_oracle(lam: Signature, points: list, t: Fraction) -> Fraction:
    """Independent evaluator from the symmetrized-sum definition; needs
    pairwise distinct nonzero denominators, used for cross-checks only."""
    n = len(lam)
    if len(points) != n:
        raise ValueError("need len(points) == len(lam)")
    pts = [Fraction(x) for x in points]
    if len(set(pts)) != n:
        raise RepeatedPoints("points must be pairwise distinct")
    t = Fraction(t)
    v = ONE
    for m in lam.multiplicities().values():
        for j in range(1, m + 1):
            v *= (1 - t**j) / (1 - t)
    total = ZERO
    for perm in permutations(range(n)):
        term = ONE
        for k in range(n):
            term *= _point_power(pts[perm[k]], lam[k])
        for i in range(n):
            for j in range(i + 1, n):
                xi, xj = pts[perm[i]], pts[perm[j]]
                term *= (xi - t * xj) / (xi - xj)
        total += term
    return total / v


def principal_specialization(lam: Signature, x: Fraction, t: Fraction) -> Fraction:
    """Closed form of the polynomial at the geometric point (x, xt, ..., xt^(n-1))."""
    x, t = Fraction(x), Fraction(t)
    n = len(lam)
    num = ONE
    for j in range(1, n + 1):
        num *= 1 - t**j
    den = ONE
    for m in lam.multiplicities().values():
        for j in range(1, m + 1):
            den *= 1 - t**j
    return _point_power(x, lam.weight) * t**lam.n_stat * num / den


# ---------------------------------------------------------------------------
# Distributions over signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignatureDistribution:
    """Exact probability table over signatures; truncated tables carry their
    certified total mass below 1."""

    probs: dict[Signature, Fraction]
    truncated: bool = False

    def __post_init__(self) -> None:
        total = ZERO
        for sig, pr in self.probs.items():
            if pr < 0:
                raise ValueError(f"negative probability for {sig.parts}")
            total += pr
        if self.truncated:
            if not 0 < total <= 1:
                raise ValueError("truncated mass must lie in (0, 1]")
        elif total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @property
    def total(self) -> Fraction:
        return sum(self.probs.values(), ZERO)

    def support(self) -> list[Signature]:
        return sorted(self.probs, key=lambda s: s.parts, reverse=True)

    def prob(self, sig: Signature) -> Fraction:
        return self.probs.get(sig, ZERO)

    def expectation_weight(self) -> Fraction:
        return sum((pr * sig.weight for sig, pr in self.probs.items()), ZERO)

    def to_json_entries(self) -> list[dict]:
        return [
            {"signature": list(sig.parts), "prob": str(pr)}
            for sig, pr in sorted(self.probs.items(), key=lambda kv: kv[0].parts, reverse=True)
        ]


def _geometric_points(t: Fraction, start: int, count: int) -> list[Fraction]:
    return [t ** (start + i) for i in range(count)]


def corner_distribution(mu_top: Signature, t: Fraction) -> SignatureDistribution:
    """Law of the singular numbers of the one-row-shorter corner of a
    bi-invariant matrix with singular numbers mu_top (t = 1/p)."""
    if len(mu_top) < 2:
        raise ValueError("need a signature of length at least 2")
    return kth_corner_distribution(mu_top, 2, t)


def joint_corner_distribution(
    mu1: Signature, t: Fraction
) -> dict[tuple[Signature, ...], Fraction]:
    """Exact joint law of the full descending corner chain
    (one-shorter, two-shorter, ..., single-row)."""
    n = len(mu1)
    t = Fraction(t)
    denom = principal_specialization(mu1, ONE, t)
    out: dict[tuple[Signature, ...], Fraction] = {}

    def rec(prefix: tuple[Signature, ...], cur: Signature, mass: Fraction):
        i = n - len(cur) + 1  # cur is the i-th corner's signature
        if len(cur) == 1:
            out[prefix] = mass * t ** ((n - 1) * cur.weight) / denom
            return
        for nu in interlacings_below(cur):
            step = psi(cur, nu, t) * t ** ((i - 1) * (cur.weight - nu.weight))
            rec(prefix + (nu,), nu, mass * step)

    if n == 1:
        return {(): ONE}
    rec((), mu1, ONE)
    total = sum(out.values(), ZERO)
    if total != 1:
        raise ConstraintViolated(f"joint corner masses sum to {total}")
    return out


def _corner_chain_masses(mu1: Signature, k: int, t: Fraction) -> dict[Signature, Fraction]:
    """{nu: the summed weight of the descending chains from mu1 to the k-th
    corner nu}, carried down one level at a time; the i-th link from the
    top, cur -> nu, weighs psi(cur, nu, t) * t^((i-1) * (|cur| - |nu|)), as
    in joint_corner_distribution."""
    level = {mu1: ONE}
    for i in range(1, k):
        below: dict[Signature, Fraction] = {}
        for cur, mass in level.items():
            for nu in interlacings_below(cur):
                w = mass * psi(cur, nu, t)
                if i > 1:  # the top link's power is t^0
                    w *= t ** ((i - 1) * (cur.weight - nu.weight))
                below[nu] = below[nu] + w if nu in below else w
        level = below
    return level


def kth_corner_distribution(
    mu1: Signature, k: int, t: Fraction
) -> SignatureDistribution:
    """Law of the k-th corner's singular numbers (k = 1 is the matrix itself):
    the chain masses down to each corner signature nu, times the
    specialization of nu that the corners below it sum to."""
    if not 1 <= k <= len(mu1):
        raise ValueError("need 1 <= k <= n")
    t = Fraction(t)
    denom = principal_specialization(mu1, ONE, t)
    x = t ** (k - 1)
    probs: dict[Signature, Fraction] = {}
    for nu, chains in _corner_chain_masses(mu1, k, t).items():
        mass = chains * principal_specialization(nu, x, t) / denom
        if mass:
            probs[nu] = mass
    # the constructor refuses masses that do not sum to 1
    return SignatureDistribution(probs)


# ---------------------------------------------------------------------------
# Corner-weight generating functions and limit predictions
# ---------------------------------------------------------------------------

Law = dict[Signature, Fraction]


def _as_law(law: Law | SignatureDistribution) -> Law:
    if isinstance(law, SignatureDistribution):
        return law.probs
    total = sum(law.values(), ZERO)
    if total != 1:
        raise ValueError(f"law masses sum to {total}, not 1")
    return law


def corner_weight_pgf(mu1: Signature, j: int, t: Fraction) -> UniPoly:
    """Exact generating function E(x^(weight of the j-th corner)) for a
    bi-invariant matrix with singular numbers mu1."""
    n = len(mu1)
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    t = Fraction(t)
    flagged = n - j + 1  # bottom links carry x
    points: list = []
    for link in range(1, n + 1):
        if link <= flagged:
            points.append(UniPoly.x(1, t ** (j - 2 + link)))
        else:
            points.append(Fraction(t ** (link - flagged - 1)))
    val = _skew_value(mu1, Signature(()), points, t)
    if isinstance(val, Fraction):
        val = UniPoly.constant(val)
    denom = principal_specialization(mu1, ONE, t)
    return val / denom


def expected_corner_weight(
    law: Law | SignatureDistribution, j: int, t: Fraction
) -> Fraction:
    """E(weight of the j-th corner) via the derivative of the generating
    function at 1, mixed over the step-signature law; the direct-summation
    route below cross-checks it."""
    law = _as_law(law)
    t = Fraction(t)
    out = ZERO
    for mu1, pr in law.items():
        out += pr * corner_weight_pgf(mu1, j, t).derivative().evaluate(1)
    return out


def expected_corner_weight_direct(
    law: Law | SignatureDistribution, j: int, t: Fraction
) -> Fraction:
    """Same expectation summed directly over the k-th corner law; the
    internal cross-check route."""
    law = _as_law(law)
    t = Fraction(t)
    out = ZERO
    for mu1, pr in law.items():
        dist = kth_corner_distribution(mu1, j, t)
        out += pr * dist.expectation_weight()
    return out


def lln_prediction(law: Law | SignatureDistribution, t: Fraction) -> tuple[Fraction, ...]:
    """Exact limits of lam_i(k)/k: consecutive differences of the expected
    corner weights, ending with the expected bottom-corner weight; these are
    the gaps verify_corner_inequality checks."""
    law = _as_law(law)
    n = len(next(iter(law)))
    t = Fraction(t)
    e = [expected_corner_weight(law, j, t) for j in range(1, n + 1)]
    return tuple(
        e[i] - e[i + 1] if i + 1 < n else e[i] for i in range(n)
    )


def corner_weight_covariance(
    law: Law | SignatureDistribution, t: Fraction
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[tuple[Fraction, ...], ...]]:
    """Exact covariance matrix of the per-step corner weights, plus its
    conjugation by the bidiagonal difference matrix (the limiting covariance
    of the centered product sequence)."""
    law = _as_law(law)
    t = Fraction(t)
    n = len(next(iter(law)))
    e1 = [ZERO] * n
    e2 = [[ZERO] * n for _ in range(n)]
    for mu1, pr in law.items():
        for chain, mass in joint_corner_distribution(mu1, t).items():
            w = [mu1.weight] + [sig.weight for sig in chain]
            m = pr * mass
            for i in range(n):
                e1[i] += m * w[i]
                for j in range(n):
                    e2[i][j] += m * w[i] * w[j]
    sigma = tuple(
        tuple(e2[i][j] - e1[i] * e1[j] for j in range(n)) for i in range(n)
    )

    def s(i: int, j: int) -> Fraction:
        return sigma[i][j] if i < n and j < n else ZERO

    # L sigma L^T for L with 1 on the diagonal and -1 above it
    lsig = tuple(
        tuple(s(i, j) - s(i, j + 1) - s(i + 1, j) + s(i + 1, j + 1) for j in range(n))
        for i in range(n)
    )
    return sigma, lsig


@dataclass(frozen=True)
class CornerInequalityReport:
    applicable: bool
    gaps: tuple[Fraction, ...]
    strict: bool
    note: str = ""


def verify_corner_inequality(
    law: Law | SignatureDistribution, t: Fraction
) -> CornerInequalityReport:
    """Exact check that the expected corner-weight gaps strictly increase
    from the bottom corner upward, whenever the law puts mass on some
    signature with distinct extreme parts."""
    law = _as_law(law)
    t = Fraction(t)
    n = len(next(iter(law)))
    applicable = any(mu[0] > mu[n - 1] for mu in law)
    gaps = lln_prediction(law, t)  # gaps[i] is the limit of lam_(i+1)(k)/k
    strict = all(gaps[i] > gaps[i + 1] for i in range(n - 1))
    if not applicable:
        return CornerInequalityReport(False, gaps, strict, "degenerate law: all supported signatures are constant")
    if not strict:
        raise InequalityViolated(f"gaps {gaps} are not strictly decreasing")
    return CornerInequalityReport(True, gaps, True)


# ---------------------------------------------------------------------------
# The dual family, the kernel, and the corner-of-Haar law
# ---------------------------------------------------------------------------


def b_normalization(lam: Signature, t: Fraction) -> Fraction:
    """Product of (1-t)...(1-t^m) over the multiplicities of the positive
    parts (partition convention; zero parts do not contribute)."""
    t = Fraction(t)
    out = ONE
    for part, m in lam.multiplicities().items():
        if part > 0:
            for j in range(1, m + 1):
                out *= 1 - t**j
    return out


def hl_q_eval(lam: Signature, points: list, t: Fraction) -> Fraction:
    """Dual polynomial b(lam) * P(lam) for nonnegative signatures, stable
    under zero padding; zero when there are more positive parts than points."""
    if len(lam) and lam[len(lam) - 1] < 0:
        raise ValueError("dual polynomials are defined for nonnegative parts here")
    positive = tuple(x for x in lam.parts if x > 0)
    if len(positive) > len(points):
        return ZERO
    lam_pos = Signature(positive)
    return b_normalization(lam_pos, t) * hl_p_eval(lam_pos, list(points), t)


def cauchy_kernel(points_a: list, points_b: list, t: Fraction) -> Fraction:
    """Product of (1 - t*a*b) / (1 - a*b) over all pairs."""
    t = Fraction(t)
    out = ONE
    for a in points_a:
        for b in points_b:
            ab = Fraction(a) * Fraction(b)
            if ab == 1:
                raise KernelPole(f"a*b = 1 for a={a}, b={b}")
            out *= (1 - t * ab) / (1 - ab)
    return out


def hl_haar_corner_measure(
    n: int,
    m: int,
    ambient: int,
    p: Prime | int,
    omitted_mass: Fraction = Fraction(1, 10**6),
) -> SignatureDistribution:
    """Law of the singular numbers of the top n x m corner of a Haar element
    of the rank-`ambient` group, as an exact table truncated so the omitted
    mass is below the requested bound.

    Dual-side specialization: t^(m-n+1) through t^(ambient-n), which
    reproduces the group itself (a point mass at the zero signature) when
    ambient = m and matches the sampled law; see the tests.
    """
    if not n <= m <= ambient:
        raise ValueError("need n <= m <= ambient")
    pi = _p_int(p)
    t = Fraction(1, pi)
    ppts = _geometric_points(t, 0, n)
    qpts = _geometric_points(t, m - n + 1, ambient - m)
    z = cauchy_kernel(ppts, qpts, t)
    r = len(qpts)

    def mass_of(lam: Signature) -> Fraction:
        positive = tuple(x for x in lam.parts if x > 0)
        if len(positive) > r:
            return ZERO
        # both specializations are geometric, so the closed product form
        # applies on each side (the dual side padded with zero parts)
        p_side = principal_specialization(lam, ONE, t)
        padded = Signature(positive + (0,) * (r - len(positive)))
        q_side = b_normalization(lam, t) * principal_specialization(
            padded, t ** (m - n + 1), t
        )
        return p_side * q_side / z

    cutoff = 4
    while True:
        probs: dict[Signature, Fraction] = {}
        total = ZERO
        for parts in combinations_with_replacement(range(cutoff, -1, -1), n):
            lam = Signature(parts)
            mass = mass_of(lam)
            if mass:
                probs[lam] = mass
                total += mass
        if 1 - total <= omitted_mass:
            return SignatureDistribution(probs, truncated=(total != 1))
        cutoff *= 2


def haar_corner_increment_pgf(
    n: int, ambient: int, j: int, t: Fraction, x: Fraction
) -> Fraction:
    """E(x^(j-th corner-weight increment)) for the n x n corner of a Haar
    element of the rank-`ambient` group; the increments over j are
    independent, which the sampler tests exercise."""
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    t, x = Fraction(t), Fraction(x)
    out = ONE
    for l in range(j, ambient - n + j):
        b = t**l
        if x * b == 1:
            raise KernelPole("pole at x * t^l = 1")
        out *= (1 - t * x * b) * (1 - b) / ((1 - x * b) * (1 - t * b))
    return out


def _increment_mean_term(b: Fraction, t: Fraction) -> Fraction:
    """The mean of one factor (1 - t x b)(1 - b) / ((1 - x b)(1 - t b)) of
    the increment generating function: its derivative at x = 1."""
    return b * (1 - t) / ((1 - b) * (1 - t * b))


def haar_corner_increment_mean(n: int, ambient: int, j: int, t: Fraction) -> Fraction:
    """Exact derivative at x = 1 of the increment generating function."""
    t = Fraction(t)
    out = ZERO
    for l in range(j, ambient - n + j):
        out += _increment_mean_term(t**l, t)
    return out


def haar_corner_lln_prediction(n: int, ambient: int, p: Prime | int) -> tuple[Fraction, ...]:
    """Exact limits of lam_j(k)/k for the corner-of-Haar step law."""
    t = Fraction(1, _p_int(p))
    return tuple(
        haar_corner_increment_mean(n, ambient, j, t) for j in range(1, n + 1)
    )


def haar_entries_lln_prediction(
    n: int, p: Prime | int, tail: Fraction = Fraction(1, 10**15)
) -> tuple[Fraction, ...]:
    """Limits of lam_j(k)/k for i.i.d. uniform entries (the infinite-ambient
    corner law); each coordinate is a convergent series summed until the
    next term drops below the tail bound, so the result is a certified
    truncation rather than a closed form."""
    t = Fraction(1, _p_int(p))
    out = []
    for j in range(1, n + 1):
        acc = ZERO
        l = j
        while True:
            term = _increment_mean_term(t**l, t)
            acc += term
            l += 1
            if term < tail:
                break
        out.append(acc)
    return tuple(out)
