"""Reproducibility and uniformity of the digit streams."""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_rmt.rng import RngStream
from padic_rmt.stats import chi_square_gof

GOLDEN_STREAM_SHA256 = "f2d491de88af5d1fea06bd31463e97eecb9fd2e413e83dab3a399e1fa3bb6230"


def test_same_address_same_digits():
    a = RngStream(42, 7)
    b = RngStream(42, 7)
    assert a.digits(("x", 1), 64, 3) == b.digits(("x", 1), 64, 3)
    assert a.residue(("y",), 2, 200) == b.residue(("y",), 2, 200)


def test_distinct_streams_differ():
    a = RngStream(42, 0)
    b = RngStream(42, 1)
    c = RngStream(43, 0)
    base = a.digits(("x",), 128, 2)
    assert base != b.digits(("x",), 128, 2)
    assert base != c.digits(("x",), 128, 2)


def test_residue_extension_is_coherent():
    rng = RngStream(5, 0)
    for p in (2, 3, 7):
        small = rng.residue(("r", p), p, 10)
        big = rng.residue(("r", p), p, 37)
        assert big % p**10 == small


def test_sliced_extension_is_coherent():
    rng = RngStream(6, 0)
    for p in (2, 3):
        small = rng.sliced_residues(("s", p), 9, p, 12)
        big = rng.sliced_residues(("s", p), 9, p, 61)
        assert [x % p**12 for x in big] == small


def test_sliced_first_digits_match_residues():
    rng = RngStream(7, 0)
    for p in (2, 3, 5):
        first = rng.sliced_first_digits(("f", p), 6, p)
        res = rng.sliced_residues(("f", p), 6, p, 9)
        assert first == [x % p for x in res]


def test_digit_uniformity_chi_square():
    rng = RngStream(8, 0)
    for p in (2, 3, 5):
        counts = Counter()
        digits = rng.digits(("u", p), 30000, p)
        counts.update(digits)
        from fractions import Fraction

        expected = {d: Fraction(1, p) for d in range(p)}
        report = chi_square_gof(counts, expected, alpha=0.01)
        assert report.passed, (p, report)


def test_uniform_int_bounds_and_determinism():
    rng = RngStream(9, 0)
    seen = set()
    for i in range(500):
        x = rng.uniform_int(("b", i), 12)
        assert 0 <= x < 12
        seen.add(x)
    assert seen == set(range(12))
    assert rng.uniform_int(("b", 0), 12) == RngStream(9, 0).uniform_int(("b", 0), 12)
    with pytest.raises(ValueError):
        rng.uniform_int(("b", 0), 2**600)  # wider than a block: refused, never loops


def test_sliced_p2_draw_wider_than_a_block_is_refused():
    # a p = 2 slice is at least one bit, so a block holds at most 512
    # entries; more used to read zeros past the block's end
    rng = RngStream(1, 0)
    with pytest.raises(ValueError):
        rng.sliced_residues(("x",), 600, 2, 8)
    with pytest.raises(ValueError):
        rng.sliced_first_digits(("x",), 513, 2)
    assert len(rng.sliced_residues(("x",), 512, 2, 8)) == 512


def test_unit_residue_is_unit():
    rng = RngStream(10, 0)
    for i in range(100):
        u = rng.unit_residue(("u", i), 3, 6)
        assert u % 3 != 0
        assert 0 <= u < 3**6


def _stream_outputs(fresh: bool):
    """Every draw kind over primes, sizes and precisions that cover the
    odd-p chunk widths, the p > 256 chunks, the per-entry fallback of a
    slice too narrow for one chunk (p = 251 and 257 with 100 entries) and
    precisions that cross block boundaries.  With `fresh`, every draw reads
    a new stream object, so no block is shared between draws."""
    shared = RngStream(2024, 3)

    def stream():
        return RngStream(2024, 3) if fresh else shared

    for p in (2, 3, 5, 7, 11, 13, 251, 257):
        for count in (1, 4, 9, 16, 100):
            for precision in (1, 33, 70, 300):
                for attempt in (0, 1):
                    path = ("golden", p, count, precision)
                    yield stream().sliced_first_digits(path, count, p, attempt)
                    yield stream().sliced_residues(path, count, p, precision, attempt)
                    yield stream().digits(path, precision, p, attempt)
                    yield stream().residue(path, p, precision, attempt)
            yield stream().uniform_int(("golden-int", p, count), p * count + 1)
            yield stream().unit_residue(("golden-unit", p, count), p, 40)


def test_stream_golden():
    """The streams are a fixed function of the address: these outputs were
    digested before the sliced draws were reworked and must never change."""
    for fresh in (False, True):
        h = hashlib.sha256()
        for out in _stream_outputs(fresh):
            h.update(repr(out).encode())
            h.update(b";")
        assert h.hexdigest() == GOLDEN_STREAM_SHA256, fresh


def _count_hashes(monkeypatch) -> list:
    """Record the (lane, block index) of every BLAKE2b call."""
    seen = []
    hash_block = RngStream.lane_block

    def counted(self, lane, index):
        seen.append((lane, index))
        return hash_block(self, lane, index)

    monkeypatch.setattr(RngStream, "lane_block", counted)
    return seen


def test_sliced_draw_hashes_each_block_once(monkeypatch):
    seen = _count_hashes(monkeypatch)
    rng = RngStream(11, 0)
    path = ("h", 3)
    rng.sliced_first_digits(path, 9, 3)
    assert [i for _, i in seen] == [0]
    first = list(seen)
    rng.sliced_residues(path, 9, 3, 70)
    later = seen[len(first):]
    assert later and not set(later) & set(first)
    assert len(set(seen)) == len(seen)


def _fixed_10_hashes_per_step(monkeypatch) -> float:
    """BLAKE2b calls per engine step of fixed-10 over 2,000 steps."""
    from padic_rmt.presets import build_preset
    from padic_rmt.processes import as_source, iter_coupled_steps

    seen = _count_hashes(monkeypatch)
    steps = 2000
    for _ in iter_coupled_steps(as_source(build_preset("fixed-10")), steps, RngStream(3, 0)):
        pass
    return len(seen) / steps


def test_fixed_10_hashes_per_step(monkeypatch):
    assert _fixed_10_hashes_per_step(monkeypatch) <= 5.5


def test_fixed_10_engine_skips_the_right_factor(monkeypatch):
    assert _fixed_10_hashes_per_step(monkeypatch) <= 3.0


@pytest.mark.parametrize("p, samples, most", [(3, 400, 4.0), (257, 100, 6.0)])
def test_corner_dist_reads_only_the_certified_digits(monkeypatch, capsys, p, samples, most):
    """The Monte-Carlo draws of corner-dist read weight(lambda - shift) + 1
    digits, 4 for (2, 1, 0), not spread + base: at spread + base they read
    5.5 blocks per sample at p = 3 and 28 at p = 257."""
    from padic_rmt.cli import main

    seen = _count_hashes(monkeypatch)
    argv = ["corner-dist", "--signature", "2,1,0", "--level", "2", "--p", str(p),
            "--monte-carlo", str(samples), "--seed", "7", "--jobs", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(seen) >= 2 * samples
    assert len(seen) / samples <= most


def test_mixture_pick_is_drawn_once_per_step(monkeypatch):
    from padic_rmt.presets import build_preset
    from padic_rmt.processes import as_source, iter_coupled_steps

    picks = []
    uniform_int = RngStream.uniform_int

    def counted(self, path, bound):
        picks.append(path)
        return uniform_int(self, path, bound)

    monkeypatch.setattr(RngStream, "uniform_int", counted)
    steps = 300
    for _ in iter_coupled_steps(as_source(build_preset("mixture-half")), steps, RngStream(3, 0)):
        pass
    assert len(picks) == len(set(picks)) == steps


def test_unit_steps_hash_nothing(monkeypatch):
    from padic_rmt.presets import build_preset
    from padic_rmt.processes import as_source, iter_coupled_steps

    seen = _count_hashes(monkeypatch)
    rows = list(iter_coupled_steps(as_source(build_preset("gsp4-haar")), 300, RngStream(3, 0)))
    assert not seen
    zero = (0, 0, 0, 0)
    assert all(lam == v == w == zero for _, lam, v, w, *_ in rows)


def _sliced_p2_by_definition(rng, path, count, precision, attempt):
    """The residues of a p = 2 sliced draw from its definition: entry e
    reads bits [e*cap, (e+1)*cap) of blocks 0, 1, ... of the lane
    path|attempt|, concatenated, and keeps the first `precision` of them."""
    cap = 512 // count
    lane = "".join(f"{c}|" for c in path).encode() + b"%d|" % attempt
    bits = []
    for i in range(-(-precision // cap)):
        block = int.from_bytes(rng.lane_block(lane, i), "little")
        bits.append([block >> j & 1 for j in range(512)])
    out = []
    for e in range(count):
        stream = [bit for block in bits for bit in block[e * cap : (e + 1) * cap]]
        out.append(sum(bit << j for j, bit in enumerate(stream[:precision])))
    return out


@pytest.mark.parametrize("fresh", [False, True], ids=["shared", "fresh"])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 9, 16, 512])
def test_sliced_p2_draws_match_their_definition(count, fresh):
    """Precisions at and around the slice width, where a draw reads one
    block or more, against the bits of lane_block itself; a shared stream
    reads every lane after others, so its block memo is exercised too."""
    shared = RngStream(77, 5)
    cap = 512 // count
    precisions = sorted({1, cap - 1, cap, cap + 1, 3 * cap} - {0})
    for attempt in range(3):
        for precision in precisions:
            path = ("boundary", count, precision)
            rng = RngStream(77, 5) if fresh else shared
            want = _sliced_p2_by_definition(RngStream(77, 5), path, count, precision, attempt)
            first = rng.sliced_first_digits(path, count, 2, attempt)
            assert first == [x & 1 for x in want], (precision, attempt)
            rng = RngStream(77, 5) if fresh else rng
            assert rng.sliced_residues(path, count, 2, precision, attempt) == want, (
                precision,
                attempt,
            )


def _digits_by_definition(rng, path, attempt, count, p, need):
    """The first `need` base-p digits of each entry of a draw of `count`
    entries, from lane_block alone: entry e reads the width-bit chunks
    [e*per, (e+1)*per) of blocks 0, 1, ... of the lane path|attempt| and
    keeps those below p.  A scalar draw is the draw of one entry."""
    width = (p - 1).bit_length()
    per = (512 // width) // count
    mask = (1 << width) - 1
    lane = "".join(f"{c}|" for c in path).encode() + b"%d|" % attempt
    digits = [[] for _ in range(count)]
    index = 0
    while min(map(len, digits)) < need:
        block = int.from_bytes(rng.lane_block(lane, index), "little")
        chunks = [block >> (width * k) & mask for k in range(count * per)]
        for e in range(count):
            digits[e] += [c for c in chunks[e * per : (e + 1) * per] if c < p]
        index += 1
    return [d[:need] for d in digits]


def _value(digits, p):
    return sum(d * p**k for k, d in enumerate(digits))


# every chunk width from 1 (bound 2) to 9 (p = 257); 100 entries at p = 3
# and 9 at p = 257 give slices that span several blocks
_LANE_BASES = (3, 5, 7, 11, 13, 17, 41, 97, 131, 257)
_LANE_OPS = st.one_of(
    st.tuples(st.just("first"), st.sampled_from((1, 4, 9, 100)), st.integers(0, 1)),
    st.tuples(
        st.just("residues"), st.sampled_from((1, 4, 9, 100)), st.integers(0, 1), st.sampled_from((1, 2, 5, 20, 41))
    ),
    st.tuples(st.just("digits"), st.integers(0, 1), st.sampled_from((1, 3, 40, 300))),
    st.tuples(st.just("residue"), st.integers(0, 1), st.sampled_from((1, 4, 34, 70))),
    st.tuples(st.just("uniform_int"), st.sampled_from((0, 2, 4, 12, 16))),
)


@pytest.mark.parametrize("fresh", [False, True], ids=["shared", "fresh"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    p=st.sampled_from(_LANE_BASES),
    ops=st.lists(_LANE_OPS, min_size=1, max_size=8),
    lane=st.integers(0, 1),
)
def test_lane_memo_matches_the_definition(fresh, p, ops, lane):
    """Draws interleaved on one lane (and its next attempt) in any order,
    at rising and falling precisions, read what the definition says; a
    shared stream serves them from its lane memo."""
    shared = RngStream(99, 1)
    path = ("memo", lane)
    for op in ops:
        rng = RngStream(99, 1) if fresh else shared
        ref = RngStream(99, 1)
        kind = op[0]
        if kind in ("first", "residues"):
            count = op[1] if p == 3 else min(op[1], 9)
            attempt = op[2]
            if kind == "first":
                want = [d[0] for d in _digits_by_definition(ref, path, attempt, count, p, 1)]
                assert rng.sliced_first_digits(path, count, p, attempt) == want, op
            else:
                precision = op[3]
                want = [_value(d, p) for d in _digits_by_definition(ref, path, attempt, count, p, precision)]
                assert rng.sliced_residues(path, count, p, precision, attempt) == want, op
        elif kind == "digits":
            attempt, count = op[1], op[2]
            want = _digits_by_definition(ref, path, attempt, 1, p, count)[0]
            assert rng.digits(path, count, p, attempt) == want, op
        elif kind == "residue":
            attempt, precision = op[1], op[2]
            want = _value(_digits_by_definition(ref, path, attempt, 1, p, precision)[0], p)
            assert rng.residue(path, p, precision, attempt) == want, op
        else:
            bound = op[1] or p
            want = _digits_by_definition(ref, path, 0, 1, bound, 1)[0][0]
            assert rng.uniform_int(path, bound) == want, op


def test_mixture_pick_reads_the_sliced_bit():
    """uniform_int(path, 2), the mixture pick, is the first bit of block 0,
    the bit sliced_first_digits(path, 1, 2) reads."""
    picks, bits = RngStream(12, 0), RngStream(12, 0)
    seen = set()
    for i in range(1000):
        path = ("step", i, "mix")
        pick = picks.uniform_int(path, 2)
        assert pick == bits.sliced_first_digits(path, 1, 2)[0]
        seen.add(pick)
    assert seen == {0, 1}
