"""Exact arithmetic, singular numbers, and matrix-shape operations."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_rmt.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    PrecisionExhausted,
    SingularMatrix,
)
from padic_rmt.ensembles import sample_bi_invariant, sample_haar_gl
from padic_rmt.padic import (
    PadicMatrix,
    PadicScalar,
    Prime,
    Signature,
    corner,
    delete_row,
    diag_signature,
    matmul,
    minor_profile_masks,
    minor_valuation_profile,
    reduce,
    singular_numbers_via_minors,
    smith_singular_numbers,
    valuation,
)
from padic_rmt.rng import RngStream


def random_signature(rng, tag, n, lo, hi):
    parts = sorted(
        (lo + rng.uniform_int(("sig",) + tag + (i,), hi - lo + 1) for i in range(n)),
        reverse=True,
    )
    return Signature(tuple(parts))


class TestValuation:
    def test_examples(self):
        assert valuation(12, 2) == 2  # 12 = 4 * 3
        assert valuation(0, 5) == math.inf
        # 3/20 = 5^-1 * (3/4); multiply back: 5^-1 * 3/4 == 3/20
        assert valuation(Fraction(3, 20), 5) == -1
        assert Fraction(5) ** -1 * Fraction(3, 4) == Fraction(3, 20)

    def test_reconstruction_roundtrip(self):
        rng = RngStream(1, 0)
        for trial in range(50):
            p = [2, 3, 5, 7][rng.uniform_int(("p", trial), 4)]
            k = rng.uniform_int(("k", trial), 13) - 6
            a = 1 + rng.uniform_int(("a", trial), 50)
            b = 1 + rng.uniform_int(("b", trial), 50)
            while a % p == 0:
                a += 1
            while b % p == 0:
                b += 1
            x = Fraction(p) ** k * Fraction(a, b)
            assert valuation(x, p) == k

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            Prime(4)
        with pytest.raises(ValueError):
            Prime(1)
        assert Prime(9973).p == 9973


class TestPadicScalar:
    def test_exact_zero(self):
        assert PadicScalar(0, 8, True).valuation(3) == math.inf

    def test_residue_zero_is_not_silent(self):
        with pytest.raises(PrecisionExhausted):
            PadicScalar(0, 8, False).valuation(3)

    def test_valuation(self):
        assert PadicScalar(12, 8).valuation(2) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            PadicScalar(3, 8, True)


class TestSignature:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Signature((0, 1))

    def test_accessors(self):
        s = Signature((3, 1, 0, -2))
        assert s.weight == 2
        assert s.n_stat == 0 * 3 + 1 * 1 + 2 * 0 + 3 * (-2)
        assert s.multiplicities() == {3: 1, 1: 1, 0: 1, -2: 1}
        assert s.shifted(2).parts == (5, 3, 2, 0)
        assert s.spread() == 5


class TestReduce:
    def test_identity(self):
        m = reduce([[1, 0], [0, 1]], 3, 5)
        assert m.shift == 0
        assert m.residues == ((1, 0), (0, 1))
        assert (0, 1) in m.exact_zeros

    def test_half(self):
        m = reduce([[Fraction(1, 2)]], 2, 4)
        assert m.shift == -1
        assert m.residues == ((1,),)

    def test_powers_factored(self):
        m = reduce([[25, 125]], 5, 6)
        assert m.shift == 2
        assert m.residues == ((1, 5),)

    def test_all_zero(self):
        m = reduce([[0, 0]], 2, 4)
        assert m.shift == 0
        assert len(m.exact_zeros) == 2

    def test_mixed_denominators(self):
        # the shift is the minimum valuation, so denominators are always
        # invertible after extraction (the invertibility guard is a
        # defensive assert, unreachable through this constructor)
        m = reduce([[Fraction(1, 2), Fraction(1, 4)], [1, 1]], 2, 4)
        assert m.shift == -2
        assert m.residues == ((2, 1), (4, 4))


class TestMatmul:
    def test_identity(self):
        rng = RngStream(2, 0)
        a = sample_haar_gl(2, 3, 10, rng)
        eye = PadicMatrix.identity(2, 3, 10)
        assert matmul(eye, a).residues == a.residues

    def test_diagonal_product(self):
        p, n = 2, 12
        a = reduce([[p, 0], [0, 1]], p, n)
        b = reduce([[1, 0], [0, p**2]], p, n)
        c = matmul(a, b)
        assert smith_singular_numbers(c).parts == (2, 1)
        assert c.residues == ((2, 0), (0, 4))

    def test_hand_product(self):
        p, n = 3, 10
        a = reduce([[0, p], [1, 0]], p, n)
        b = reduce([[1, 0], [0, p]], p, n)
        assert matmul(a, b).residues == ((0, 9), (1, 0))

    def test_shape_mismatch(self):
        a = reduce([[1, 0]], 2, 4)
        with pytest.raises(DimensionMismatch):
            matmul(a, a)


class TestSmith:
    def test_diagonal(self):
        d = diag_signature(Signature((1, 0)), 2, 2, 3, 10)
        assert smith_singular_numbers(d).parts == (1, 0)

    def test_unipotent_perturbation(self):
        # minors oracle: min 1x1 valuation is 0 and det = p^2, so (2, 0)
        p = 3
        m = reduce([[1, 1], [1, 1 + p**2]], p, 12)
        assert smith_singular_numbers(m).parts == (2, 0)
        assert singular_numbers_via_minors(m).parts == (2, 0)

    def test_antidiagonal(self):
        p = 3
        m = reduce([[0, p**6], [1, 0]], p, 12)
        assert smith_singular_numbers(m).parts == (6, 0)
        assert singular_numbers_via_minors(m).parts == (6, 0)

    def test_precision_exhausted(self):
        m = PadicMatrix(2, 3, 0, ((0,),))
        with pytest.raises(PrecisionExhausted):
            smith_singular_numbers(m)

    def test_exactly_singular(self):
        m = PadicMatrix(2, 3, 0, ((1, 1), (0, 0)), frozenset({(1, 0), (1, 1)}))
        with pytest.raises(SingularMatrix):
            smith_singular_numbers(m)

    def test_fill_in_is_not_an_exact_zero(self):
        # on the (0, 0) pivot, row 1 subtracts a multiple of row 0, whose
        # entry (0, 1) is not exact, and row 3's multiplier (3, 0) is zero
        # to the precision only, so the exact zeros (1, 1), (3, 1) and
        # (3, 2) do not survive; adding 8 to every entry that is not an
        # exact zero gives a lift of determinant -6912, so it is not singular
        m = PadicMatrix(
            2,
            3,
            0,
            ((5, 2, 2, 0), (4, 0, 0, 4), (4, 1, 4, 1), (0, 0, 0, 4)),
            frozenset({(0, 3), (1, 1), (3, 1), (3, 2)}),
        )
        with pytest.raises(PrecisionExhausted):
            smith_singular_numbers(m)

    def test_rectangular(self):
        p = 5
        m = reduce([[p, 0, 0], [0, 1, 0]], p, 8)
        assert smith_singular_numbers(m).parts == (1, 0)

    def test_minors_diagonal(self):
        d = diag_signature(Signature((2, 1, 0)), 3, 3, 5, 10)
        assert singular_numbers_via_minors(d).parts == (2, 1, 0)

    def test_oracle_equivalence_random(self):
        rng = RngStream(3, 0)
        for trial in range(200):
            n = 2 + rng.uniform_int(("n", trial), 3)
            lam = random_signature(rng, (trial,), n, -3, 5)
            mat = sample_bi_invariant(lam, n, n, 2, None, rng, ("m", trial))
            a = smith_singular_numbers(mat)
            b = singular_numbers_via_minors(mat)
            assert a == b == lam


@st.composite
def _digit_grids(draw):
    """Grids of up to 4 x 4 at p in {2, 3}: uniform residues, residues near
    the precision, residues 0 to the precision only, and exact zeros."""
    p = draw(st.sampled_from((2, 3)))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(rows, 4))
    precision = draw(st.integers(1, 8))
    mod = p**precision
    near = st.integers(max(precision - 2, 0), precision).flatmap(
        lambda e: st.integers(0, mod - 1).map(lambda u: u * p**e % mod)
    )
    cell = st.one_of(
        st.tuples(st.integers(0, mod - 1), st.just(False)),
        st.tuples(near, st.just(False)),
        st.just((0, True)),
    )
    cells = draw(
        st.lists(
            st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
    )
    residues = tuple(tuple(x for x, _ in row) for row in cells)
    zeros = frozenset(
        (i, j) for i, row in enumerate(cells) for j, (_, exact) in enumerate(row) if exact
    )
    return PadicMatrix(p, precision, 0, residues, zeros)


def _has_full_matching(a: PadicMatrix) -> bool:
    """Some choice of one column per row avoids every exact zero."""
    return any(
        all((i, c) not in a.exact_zeros for i, c in enumerate(cs))
        for cs in permutations(range(a.cols), a.rows)
    )


class TestNeverGuess:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_digit_grids())
    def test_routes_agree_or_decline(self, a):
        # elimination and the minors oracle share no code: when both return
        # they agree, and a route that declines says why, claiming
        # singularity only when the exact zeros force it for every lift
        outcomes = []
        for route in (smith_singular_numbers, singular_numbers_via_minors):
            try:
                outcomes.append(route(a))
            except PrecisionExhausted:
                outcomes.append(None)
            except SingularMatrix:
                assert not _has_full_matching(a), route.__name__
                outcomes.append(None)
        if None not in outcomes:
            assert outcomes[0] == outcomes[1]


class TestRectangular:
    def test_oracle_equivalence_wide(self):
        rng = RngStream(14, 0)
        for trial in range(60):
            rows = 2 + rng.uniform_int(("r", trial), 2)
            cols = rows + 1 + rng.uniform_int(("c", trial), 2)
            lam = random_signature(rng, (trial,), rows, -2, 4)
            mat = sample_bi_invariant(lam, rows, cols, 3, None, rng, ("m", trial))
            a = smith_singular_numbers(mat)
            b = singular_numbers_via_minors(mat)
            assert a == b == lam


class TestProperties:
    def test_bi_invariance(self):
        rng = RngStream(4, 0)
        for trial in range(40):
            lam = random_signature(rng, (trial,), 3, -2, 4)
            mat = sample_bi_invariant(lam, 3, 3, 2, None, rng, ("m", trial))
            u = sample_haar_gl(3, 2, mat.precision, rng, ("u", trial))
            v = sample_haar_gl(3, 2, mat.precision, rng, ("v", trial))
            assert smith_singular_numbers(matmul(matmul(u, mat), v)) == lam

    def test_interlacing(self):
        rng = RngStream(5, 0)
        for trial in range(40):
            lam = random_signature(rng, (trial,), 4, -2, 4)
            mat = sample_bi_invariant(lam, 4, 4, 3, None, rng, ("m", trial))
            upper = smith_singular_numbers(mat)
            for i in range(2, 5):
                lower = smith_singular_numbers(corner(mat, i))
                assert all(
                    upper[j] >= lower[j] >= upper[j + 1]
                    for j in range(len(lower))
                )
                upper = lower

    def test_weight_additivity(self):
        rng = RngStream(6, 0)
        for trial in range(30):
            lam = random_signature(rng, (trial,), 3, -2, 3)
            kappa = random_signature(rng, (trial, "k"), 3, -2, 3)
            mat = sample_bi_invariant(lam, 3, 3, 2, 40, rng, ("m", trial))
            d = diag_signature(kappa, 3, 3, 2, 40)
            got = smith_singular_numbers(matmul(d, mat))
            assert got.weight == lam.weight + kappa.weight

    def test_perturbation_stability(self):
        # adding a matrix whose smallest singular number exceeds the k-th
        # singular number of A leaves the bottom singular numbers alone
        rng = RngStream(7, 0)
        p, n, prec = 2, 3, 40
        for trial in range(30):
            lam = random_signature(rng, (trial,), n, 0, 3)
            k = 1 + rng.uniform_int(("k", trial), n)
            floor = lam[k - 1] + 1
            mu = Signature(tuple(x + floor for x in random_signature(rng, (trial, "b"), n, 0, 2)))
            a = sample_bi_invariant(lam, n, n, p, prec, rng, ("a", trial))
            b = sample_bi_invariant(mu, n, n, p, prec, rng, ("b", trial))
            # each shift is the smallest part, so A + B = p^(s_a) (a' + p^(s_b - s_a) b')
            assert (a.shift, b.shift) == (lam[n - 1], mu[n - 1])
            mod = p**prec
            lift = p ** (b.shift - a.shift)
            summed = PadicMatrix(
                p,
                prec,
                a.shift,
                tuple(
                    tuple((x + lift * y) % mod for x, y in zip(ra, rb))
                    for ra, rb in zip(a.residues, b.residues)
                ),
            )
            got = smith_singular_numbers(summed)
            assert got.parts[k - 1 :] == lam.parts[k - 1 :]

    def test_monotonicity(self):
        rng = RngStream(8, 0)
        for trial in range(30):
            lam = random_signature(rng, (trial,), 3, -2, 3)
            mu = random_signature(rng, (trial, "b"), 3, 0, 3)
            a = sample_bi_invariant(lam, 3, 3, 2, 40, rng, ("a", trial))
            b = sample_bi_invariant(mu, 3, 3, 2, 40, rng, ("b", trial))
            before = smith_singular_numbers(a)
            after = smith_singular_numbers(matmul(a, b))
            assert all(after[i] >= before[i] for i in range(3))

    def test_corner_weight_concavity(self):
        rng = RngStream(9, 0)
        for trial in range(30):
            lam = random_signature(rng, (trial,), 4, -2, 4)
            mat = sample_bi_invariant(lam, 4, 4, 2, None, rng, ("m", trial))
            for i in range(1, 3):
                top = corner(mat, i)
                w_i = smith_singular_numbers(top).weight
                w_next = smith_singular_numbers(corner(mat, i + 1)).weight
                w_skip = smith_singular_numbers(delete_row(top, 2)).weight
                w_two = smith_singular_numbers(corner(mat, i + 2)).weight
                assert w_i - w_next >= w_skip - w_two


class TestPadicMatrixRefusals:
    # name: (precision, residues, exact zeros, the whole message); p = 3
    REFUSED = {
        "ragged": (4, ((1, 2, 3), (4, 5)), (), "ragged rows"),
        "ragged-after-an-out-of-range-row": (4, ((1, -2), (4, 5, 6)), (), "ragged rows"),
        "empty": (4, (), (), "matrix must be nonempty"),
        "empty-row": (4, ((),), (), "matrix must be nonempty"),
        "negative": (4, ((1, 2, 3), (4, 5, -1)), (), "residue out of range at (1,2)"),
        "negative-first-of-two": (4, ((1, -2), (-3, 4)), (), "residue out of range at (0,1)"),
        "at-the-modulus": (4, ((1, 2), (81, 0)), (), "residue out of range at (1,0)"),
        "beyond-the-modulus": (2, ((0, 10**6),), (), "residue out of range at (0,1)"),
        "exact-zero-with-residue": (4, ((1, 0), (0, 5)), ((1, 0), (1, 1)), "exact zero with nonzero residue at (1,1)"),
        "precision-0": (0, ((1, 2),), (), "precision must be >= 1"),
        "precision-0-and-empty": (0, (), (), "precision must be >= 1"),
    }

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_refused_with_the_position(self, name):
        precision, residues, zeros, message = self.REFUSED[name]
        with pytest.raises(ValueError) as exc:
            PadicMatrix(3, precision, 0, residues, frozenset(zeros))
        assert str(exc.value) == message

    def test_bounds_are_accepted(self):
        mat = PadicMatrix(3, 4, 0, ((0, 80), (80, 0)), frozenset({(0, 0), (1, 1)}))
        assert mat.rows == mat.cols == 2


class TestShapes:
    def test_corner_full(self):
        rng = RngStream(10, 0)
        mat = sample_haar_gl(3, 2, 10, rng)
        assert corner(mat, 1).residues == mat.residues

    def test_corner_of_diagonal(self):
        p = 2
        mat = reduce([[1, 0], [0, p**4]], p, 10)
        c = corner(mat, 2)
        assert c.rows == 1 and c.cols == 2
        assert c.residues == ((0, 16),)
        assert smith_singular_numbers(c).parts == (4,)

    def test_corner_last_row(self):
        rng = RngStream(11, 0)
        mat = sample_haar_gl(3, 2, 10, rng)
        c = corner(mat, 3)
        assert c.rows == 1 and c.cols == 3
        assert c.residues == (mat.residues[2],)

    def test_corner_index_error(self):
        mat = reduce([[1, 0], [0, 1]], 2, 4)
        with pytest.raises(IndexOutOfRange):
            corner(mat, 3)

    def test_delete_row(self):
        mat = reduce([[1, 2], [3, 4]], 5, 6)
        assert delete_row(mat, 1).residues == ((3, 4),)
        eye = PadicMatrix.identity(3, 5, 6)
        assert delete_row(eye, 2).residues == ((1, 0, 0), (0, 0, 1))
        with pytest.raises(IndexOutOfRange):
            delete_row(mat, 3)

    def test_delete_second_row_matches_swapped_corner(self):
        # removing the second row of the i-th corner is the (i+1)-th corner
        # of the matrix with rows i, i+1 swapped
        rng = RngStream(12, 0)
        mat = sample_haar_gl(4, 3, 12, rng)
        i = 2
        a = delete_row(corner(mat, i), 2)
        rows = list(mat.residues)
        rows[i - 1], rows[i] = rows[i], rows[i - 1]
        swapped = PadicMatrix(3, 12, 0, tuple(rows))
        b = corner(swapped, i + 1)
        assert a.residues == b.residues


class TestDiagSignature:
    def test_identity(self):
        d = diag_signature(Signature((0, 0)), 2, 2, 2, 8)
        assert d.residues == ((1, 0), (0, 1)) and d.shift == 0

    def test_rectangular(self):
        d = diag_signature(Signature((1, 0)), 2, 3, 7, 8)
        assert d.residues == ((7, 0, 0), (0, 1, 0))

    def test_negative_shift(self):
        d = diag_signature(Signature((0, -2)), 2, 2, 5, 8)
        assert d.shift == -2
        assert d.residues == ((25, 0), (0, 1))
        assert smith_singular_numbers(d).parts == (0, -2)

    def test_needs_precision(self):
        with pytest.raises(PrecisionExhausted):
            diag_signature(Signature((9, 0)), 2, 2, 2, 8)


class TestProfile:
    def test_matches_definition(self):
        # the profile is the per-row-subset minimum of certified minor
        # valuations; check against direct corner computations
        rng = RngStream(13, 0)
        mat = sample_bi_invariant(Signature((2, 1, 0)), 3, 3, 2, None, rng)
        prof = minor_valuation_profile(mat)
        # full row set: total weight of the singular numbers
        assert prof[frozenset({0, 1, 2})] == smith_singular_numbers(mat).weight
        # suffix subsets are corner weights
        assert prof[frozenset({1, 2})] == smith_singular_numbers(corner(mat, 2)).weight
        assert prof[frozenset({2})] == smith_singular_numbers(corner(mat, 3)).weight

    def test_json_roundtrip(self):
        mat = reduce([[1, 0], [0, 8]], 2, 16)
        again = PadicMatrix.from_json(mat.to_json())
        assert again.residues == mat.residues
        assert again.shift == mat.shift
        assert again.precision == mat.precision


def _profile_cases():
    """A fixed seeded set of minor_profile_masks inputs: rows 1-6, cols
    rows..rows+2, p in {2, 3, 5}, precision 1-40.  Entries are uniform,
    near-precision multiples of p or zero; some rows are multiples of an
    earlier row plus a perturbation at the precision; every other grid
    flags most of its zero residues as exact zeros."""
    gen = random.Random(20261020)
    for rows in range(1, 7):
        for extra in range(3):
            cols = rows + extra
            for p in (2, 3, 5):
                for t in range(12):
                    precision = gen.randint(1, 40)
                    mod = p**precision
                    grid: list[tuple[int, ...]] = []
                    for i in range(rows):
                        if i and gen.random() < 0.25:
                            src = grid[gen.randrange(i)]
                            c = gen.randrange(mod)
                            e = precision - gen.randint(0, 2)
                            row = [
                                (c * x + gen.randrange(p) * p ** max(e, 0)) % mod
                                for x in src
                            ]
                        else:
                            row = []
                            for _ in range(cols):
                                u = gen.random()
                                if u < 0.5:
                                    row.append(gen.randrange(mod))
                                elif u < 0.8:
                                    e = max(precision - gen.randint(1, 3), 0)
                                    row.append(gen.randrange(mod) * p**e % mod)
                                else:
                                    row.append(0)
                        grid.append(tuple(row))
                    zeros = frozenset()
                    if t % 2:
                        zeros = frozenset(
                            (i, j)
                            for i in range(rows)
                            for j in range(cols)
                            if grid[i][j] == 0 and gen.random() < 0.8
                        )
                    yield tuple(grid), p, precision, zeros


# SHA-256 over minor_profile_masks on _profile_cases, digested before the
# profile kernel was rewritten on row and column bitmasks
PROFILE_GOLDEN_SHA256 = "3d21d03d8e7514a763ffc323bc62e731866e70683c68f7517c93c0a0cc462d58"


class TestProfileGolden:
    def test_profile_golden(self):
        h = hashlib.sha256()
        for grid, p, precision, zeros in _profile_cases():
            try:
                out = repr(minor_profile_masks(grid, p, precision, zeros))
            except PrecisionExhausted as exc:
                out = type(exc).__name__
            h.update(out.encode())
            h.update(b";")
        assert h.hexdigest() == PROFILE_GOLDEN_SHA256
