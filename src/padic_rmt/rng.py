"""Deterministic, splittable randomness built on keyed BLAKE2b counters.

Every logical random object (a matrix draw, a mixture pick, a rejection
attempt) reads an infinite digit stream addressed by a structured path, so

  * two streams with distinct (master_seed, stream_index) are independent,
  * the same address always yields the same digits, across runs and
    platforms, and
  * re-reading an address at a higher precision extends the earlier digits
    in place (the first N digits never change), which is what makes
    precision escalation replay the very same sample.

Digits in base p come from fixed-width bit chunks with rejection, so they
are exactly uniform.  Matrix draws use a sliced layout: each 512-bit block
is split into one fixed slice per entry, so one hash feeds all entries of
an attempt and the slice geometry never depends on the precision.  A
scalar draw is a sliced draw with one slice.

Each block is hashed once and each digit decoded once per lane: a stream
keeps a memo of the lane it read last, with its blocks and, for each
slice, the digits accepted so far and how many of the slice's chunks they
came from.  So the residues of an accepted rejection attempt extend the
first digits that decided it, and a precision escalation extends the
digits of the draw it replays.  A one-slice draw decodes only about the
chunks it needs; a sliced draw cuts each block into one byte per chunk
once and drops rejected chunks with ``bytes.translate``.  Bases that
reject nothing (powers of two) read the bits straight from the blocks.
"""

from __future__ import annotations

from functools import lru_cache
from hashlib import blake2b

_BLOCK_BITS = 512

PathLike = tuple[int | str, ...]

# For a chunk width w dividing 8, table j maps a byte to its j-th w-bit
# chunk; interleaving the translated bytes lists the chunks in stream order.
_SPREAD = {
    w: [bytes((b >> (w * j)) & ((1 << w) - 1) for b in range(256)) for j in range(8 // w)]
    for w in (1, 2, 4)
}
# maps a digit to its character in int(text, base) for bases up to 36
_DIGIT_CHARS = bytes.maketrans(bytes(range(36)), b"0123456789abcdefghijklmnopqrstuvwxyz")


@lru_cache(maxsize=None)
def _spread_stages(width: int, count: int) -> tuple[tuple[int, int], ...]:
    """(mask, shift) stages that move chunk j of `count` packed width-bit
    chunks from bit width*j to bit 8*j.  Stage t moves the chunks whose
    index has bit t set; going from the highest bit down, no chunk lands
    on one that has yet to move."""
    gap = 8 - width
    low = (1 << width) - 1
    stages = []
    for t in reversed(range((count - 1).bit_length())):
        mask = 0
        for j in range(count):
            if j >> t & 1:
                mask |= low << (width * j + gap * (j >> t + 1 << t + 1))
        stages.append((mask, gap << t))
    return tuple(stages)


def _cut(data: bytes, width: int) -> bytes | list[int]:
    """The whole width-bit chunks of data in stream order (chunk j is bits
    [width*j, width*(j+1)) of the little-endian integer): one byte per
    chunk for widths up to 8, a list of ints beyond.  Widths dividing 8
    are cut by byte tables, widths 3, 5, 6 and 7 by spread stages."""
    if width == 8:
        return data
    tables = _SPREAD.get(width)
    if tables is not None:
        out = bytearray(len(data) * len(tables))
        for j, table in enumerate(tables):
            out[j :: len(tables)] = data.translate(table)
        return bytes(out)
    count = len(data) * 8 // width
    x = int.from_bytes(data, "little")
    if width > 8:
        mask = (1 << width) - 1
        return [x >> s & mask for s in range(0, count * width, width)]
    x &= (1 << count * width) - 1
    for mask, shift in _spread_stages(width, count):
        y = x & mask
        x = x ^ y | y << shift
    return x.to_bytes(count, "little")


@lru_cache(maxsize=None)
def _rejected(p: int) -> bytes:
    """The chunk values of a byte-sized chunk that are not base-p digits
    (cached for p <= 256 only, so at most 255 entries)."""
    return bytes(range(p, 1 << (p - 1).bit_length()))


@lru_cache(maxsize=None)
def _slice_bits(count: int, p: int) -> int:
    """The bits of each block that one entry of a sliced draw of `count`
    entries reads; 0 means: fall back to per-entry lanes.  A draw of one
    entry (every scalar draw) whose digit is wider than a block is refused."""
    if p == 2 and count > _BLOCK_BITS:
        raise ValueError("a sliced p = 2 draw has at most one entry per block bit")
    width = (p - 1).bit_length()
    cap = (_BLOCK_BITS // width) // count * width
    if cap == 0 and count == 1:
        raise ValueError("a digit must fit in one 512-bit block")
    return cap


@lru_cache(maxsize=None)
def _slices(count: int, per: int) -> tuple[slice, ...]:
    """The chunk ranges of the `count` entries of a sliced draw."""
    return tuple(slice(lo, lo + per) for lo in range(0, count * per, per))


def _bit_slices(block: bytes, count: int, cap: int, bits: int) -> list[int]:
    """The low `bits` bits of each of the `count` cap-bit slices of a block."""
    b = int.from_bytes(block, "little")
    mask = (1 << bits) - 1
    out = []
    for _ in range(count):
        out.append(b & mask)
        b >>= cap
    return out


def _from_digits(slices: list, need: int, p: int) -> list[int]:
    """For each slice, the integer whose base-p digits, least significant
    first, are the slice's first `need` digits."""
    if need < 1:
        return [0] * len(slices)
    first = slice(need - 1, None, -1)
    if p <= 36:
        return [int(d[first].translate(_DIGIT_CHARS), p) for d in slices]
    out = []
    for digits in slices:
        acc = 0
        for d in digits[first]:
            acc = acc * p + d
        out.append(acc)
    return out


class RngStream:
    """One independent randomness lane, identified by (master_seed, stream_index).

    A stream memoizes the lane it read last, so one stream object must not
    be shared between threads."""

    __slots__ = (
        "master_seed",
        "stream_index",
        "_hasher",
        "_path",
        "_attempt",
        "_path_bytes",
        "_lane",
        "_blocks",
        "_slicing",
        "_digits",
        "_read",
        "_fewest",
    )

    def __init__(self, master_seed: int, stream_index: int = 0):
        self.master_seed = int(master_seed)
        self.stream_index = int(stream_index)
        key = blake2b(
            f"padic-rmt|{self.master_seed}|{self.stream_index}".encode(),
            digest_size=16,
        ).digest()
        self._hasher = blake2b(key=key, digest_size=64)
        # one-lane memo: the lane last read and its blocks, then for the
        # slicing (base, entries) last decoded on it the digits of each
        # slice, the number of each slice's chunks they were read from and
        # the fewest digits any slice has
        self._path: PathLike | None = None
        self._attempt = 0
        self._path_bytes = b""
        self._lane = b""
        self._blocks: list[bytes] = []
        self._slicing: tuple[int, int] | None = None
        self._digits: list = []
        self._read = self._fewest = 0

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"

    def __reduce__(self):
        # the keyed hasher does not pickle; a copy starts with an empty memo
        return (RngStream, (self.master_seed, self.stream_index))

    # -- raw blocks ---------------------------------------------------------

    def lane_block(self, lane: bytes, index: int) -> bytes:
        """512 fresh uniform bits: block `index` of the lane whose address
        prefix is `lane` (path components and attempt, each ending in "|")."""
        h = self._hasher.copy()
        h.update(b"%s%d" % (lane, index))
        return h.digest()

    def _select(self, path: PathLike, attempt: int) -> None:
        """Make (path, attempt) the memo lane, keeping its memo if it already is."""
        if path is not self._path:
            self._path = path
            self._path_bytes = ("%s|" * len(path) % path).encode()
        elif attempt == self._attempt:
            return
        self._attempt = attempt
        lane = b"%s%d|" % (self._path_bytes, attempt)
        if lane != self._lane:
            self._lane = lane
            self._blocks = []
            self._slicing = None

    def _block(self, index: int) -> bytes:
        blocks = self._blocks
        for i in range(len(blocks), index + 1):
            blocks.append(self.lane_block(self._lane, i))
        return blocks[index]

    def _slice_digits(self, p: int, count: int, per: int, need: int) -> list:
        """At least `need` base-p digits of each of `count` slices of the
        memo lane: slice e reads chunks [e*per, (e+1)*per) of blocks 0, 1,
        2, ... and drops the chunks that are not digits.  Digits come as
        bytes for p <= 256 and as lists beyond.

        The memo holds every slice's digits from the same number of its
        chunks.  While a slice is short, all slices read on: a sliced draw
        reads the next block's slices whole (that block is hashed because
        one slice needs it, and is then cut once for all of them); a
        one-slice draw reads about twice as many chunks as digits are
        missing, since at least half the chunks are digits."""
        if self._slicing != (p, count):
            self._slicing = (p, count)
            self._digits = [b""] * count if p <= 256 else [[] for _ in range(count)]
            self._read = self._fewest = 0
        digits = self._digits
        if self._fewest >= need:
            return digits
        width = (p - 1).bit_length()
        while True:
            index, off = divmod(self._read, per)
            if count == 1:
                hi = min(per, off + 2 * (need - self._fewest) + 8)
                spans = (slice(off, hi),)
            else:
                hi = per
                spans = _slices(count, per)
            cut = _cut(self._block(index)[: -(-((count - 1) * per + hi) * width // 8)], width)
            if p <= 256:
                rejected = _rejected(p)
                digits = [d + cut[s].translate(None, rejected) for d, s in zip(digits, spans)]
            else:
                digits = [d + [c for c in cut[s] if c < p] for d, s in zip(digits, spans)]
            self._digits = digits
            self._read = index * per + hi
            self._fewest = min(map(len, digits))
            if self._fewest >= need:
                return digits

    def _residues(
        self, path: PathLike, attempt: int, count: int, p: int, precision: int
    ) -> list[int]:
        """The residues mod p^precision of a sliced draw of count >= 1
        entries that fits in a block."""
        cap = _slice_bits(count, p)
        self._select(path, attempt)
        width = (p - 1).bit_length()
        if p & (p - 1):
            return _from_digits(self._slice_digits(p, count, cap // width, precision), precision, p)
        # a power of two: every chunk is a digit, so slice e of the stream
        # is bits [e*cap, (e+1)*cap) of blocks 0, 1, ..., concatenated
        bits = precision * width
        if bits <= cap:
            return _bit_slices(self._block(0), count, cap, bits)
        blocks = [int.from_bytes(self._block(i), "little") for i in range(-(-bits // cap))]
        mask_full = (1 << bits) - 1
        cap_mask = (1 << cap) - 1
        out = []
        for e in range(count):
            lo = e * cap
            acc = 0
            for i, b in enumerate(blocks):
                acc |= ((b >> lo) & cap_mask) << (cap * i)
            out.append(acc & mask_full)
        return out

    def _first_digits(self, path: PathLike, attempt: int, count: int, p: int) -> list[int]:
        """The first digits of a sliced draw of count >= 1 entries that
        fits in a block."""
        if not p & (p - 1):
            return self._residues(path, attempt, count, p, 1)
        cap = _slice_bits(count, p)
        self._select(path, attempt)
        per = cap // (p - 1).bit_length()
        return [d[0] for d in self._slice_digits(p, count, per, 1)]

    # -- scalar draws ---------------------------------------------------------

    def digits(
        self, path: PathLike, count: int, p: int, attempt: int = 0
    ) -> list[int]:
        """First `count` base-p digits of the address's digit stream."""
        cap = _slice_bits(1, p)
        self._select(path, attempt)
        per = cap // (p - 1).bit_length()
        return list(self._slice_digits(p, 1, per, count)[0][:count])

    def residue(self, path: PathLike, p: int, precision: int, attempt: int = 0) -> int:
        """Uniform residue in [0, p^precision) read from the address's digits."""
        return self._residues(path, attempt, 1, p, precision)[0]

    def uniform_int(self, path: PathLike, bound: int) -> int:
        """Uniform integer in [0, bound) via fixed-width rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        return self._first_digits(path, 0, 1, bound)[0]

    def unit_residue(self, path: PathLike, p: int, precision: int) -> int:
        """Uniform unit (residue coprime to p) in [0, p^precision); the
        accepted attempt depends only on first digits, never on precision."""
        attempt = 0
        while True:
            r = self.residue(path, p, precision, attempt)
            if r % p != 0:
                return r
            attempt += 1

    # -- sliced matrix draws ------------------------------------------------
    #
    # A draw of `count` entries splits every block into `count` equal slices;
    # entry e reads its digits from slice e of blocks 0, 1, 2, ...  The
    # geometry depends only on (count, p), so extending the precision only
    # reads further blocks and never moves earlier digits.

    def sliced_first_digits(
        self, path: PathLike, count: int, p: int, attempt: int = 0
    ) -> list[int]:
        """The first base-p digit of every entry of a sliced draw."""
        if _slice_bits(count, p) == 0:
            return [
                self.digits(path + (e,), 1, p, attempt)[0] for e in range(count)
            ]
        return self._first_digits(path, attempt, count, p)

    def sliced_residues(
        self, path: PathLike, count: int, p: int, precision: int, attempt: int = 0
    ) -> list[int]:
        """All `count` residues of a sliced draw, in [0, p^precision)."""
        if _slice_bits(count, p) == 0:
            return [
                self.residue(path + (e,), p, precision, attempt)
                for e in range(count)
            ]
        return self._residues(path, attempt, count, p, precision)
