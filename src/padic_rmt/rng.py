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
an attempt and the slice geometry never depends on the precision.

Each block is hashed once per draw: a stream keeps the blocks of the lane
it read last, so the residues of an accepted rejection attempt reuse the
blocks its first digits were read from.  Odd-p blocks are cut into one
byte per chunk and rejected chunks are deleted with ``bytes.translate``.
"""

from __future__ import annotations

from functools import lru_cache
from hashlib import blake2b
from operator import methodcaller

_BLOCK_BITS = 512

PathLike = tuple[int | str, ...]

# For a chunk width w dividing 8, table j maps a byte to its j-th w-bit
# chunk; interleaving the translated blocks lists the chunks in stream order.
_SPREAD = {
    w: [bytes((b >> (w * j)) & ((1 << w) - 1) for b in range(256)) for j in range(8 // w)]
    for w in (1, 2, 4)
}
# maps a digit to its character in int(text, base) for bases up to 36
_DIGIT_CHARS = bytes.maketrans(bytes(range(36)), b"0123456789abcdefghijklmnopqrstuvwxyz")


def _cut(block: bytes, width: int) -> bytes | list[int]:
    """The width-bit chunks of a block in stream order: one byte per chunk
    for widths up to 8, a list of ints beyond."""
    if width == 8:
        return block
    tables = _SPREAD.get(width)
    if tables is not None:
        out = bytearray(_BLOCK_BITS // width)
        for j, table in enumerate(tables):
            out[j :: len(tables)] = block.translate(table)
        return bytes(out)
    b = int.from_bytes(block, "little")
    mask = (1 << width) - 1
    chunks = [(b >> s) & mask for s in range(0, _BLOCK_BITS - width + 1, width)]
    return bytes(chunks) if width < 8 else chunks


@lru_cache(maxsize=None)
def _rejected(p: int) -> bytes:
    """The chunk values of a byte-sized chunk that are not base-p digits
    (cached for p <= 256 only, so at most 255 entries)."""
    return bytes(range(p, 1 << (p - 1).bit_length()))


@lru_cache(maxsize=None)
def _slice_bits(count: int, p: int) -> int:
    """The bits of each block that one entry of a sliced draw of `count`
    entries reads; 0 means: fall back to per-entry lanes."""
    if p == 2:
        if count > _BLOCK_BITS:
            raise ValueError("a sliced p = 2 draw has at most one entry per block bit")
        return _BLOCK_BITS // count
    width = (p - 1).bit_length()
    return (_BLOCK_BITS // width) // count * width


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


def _from_digits(digits: bytes | list[int], p: int) -> int:
    """The integer whose base-p digits, least significant first, these are."""
    if p <= 36:
        return int(digits[::-1].translate(_DIGIT_CHARS), p) if digits else 0
    acc = 0
    for d in reversed(digits):
        acc = acc * p + d
    return acc


class RngStream:
    """One independent randomness lane, identified by (master_seed, stream_index).

    A stream memoizes the blocks of the lane it read last, so one stream
    object must not be shared between threads."""

    __slots__ = (
        "master_seed",
        "stream_index",
        "_hasher",
        "_path",
        "_path_bytes",
        "_lane",
        "_blocks",
        "_width",
        "_chunks",
    )

    def __init__(self, master_seed: int, stream_index: int = 0):
        self.master_seed = int(master_seed)
        self.stream_index = int(stream_index)
        key = blake2b(
            f"padic-rmt|{self.master_seed}|{self.stream_index}".encode(),
            digest_size=16,
        ).digest()
        self._hasher = blake2b(key=key, digest_size=64)
        # one-lane memo: the lane last read, its blocks and their chunks
        self._path: PathLike | None = None
        self._path_bytes = b""
        self._lane = b""
        self._blocks: list[bytes] = []
        self._width = 0
        self._chunks: list = []

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
        """Make (path, attempt) the memo lane, keeping its blocks if it already is."""
        if path is not self._path:
            self._path = path
            self._path_bytes = ("%s|" * len(path) % path).encode()
        lane = b"%s%d|" % (self._path_bytes, attempt)
        if lane != self._lane:
            self._lane = lane
            self._blocks = []
            self._chunks = []

    def _block(self, index: int) -> bytes:
        blocks = self._blocks
        for i in range(len(blocks), index + 1):
            blocks.append(self.lane_block(self._lane, i))
        return blocks[index]

    def _chunk_block(self, index: int, width: int) -> bytes | list[int]:
        if width != self._width:
            self._width = width
            self._chunks = []
        chunks = self._chunks
        while len(chunks) <= index:
            chunks.append(_cut(self._block(len(chunks)), width))
        return chunks[index]

    def _slice_digits(
        self, p: int, count: int, per: int, need: int
    ) -> list[bytes] | list[list[int]]:
        """The first `need` base-p digits of each of `count` slices of the
        memo lane: slice e reads chunks [e*per, (e+1)*per) of blocks 0, 1,
        2, ... and drops the chunks that are not digits.  Digits come as
        bytes for p <= 256 and as lists beyond."""
        width = (p - 1).bit_length()
        if width <= 8:
            accept = methodcaller("translate", None, _rejected(p))
        else:

            def accept(chunks):
                return [c for c in chunks if c < p]

        slices = _slices(count, per)
        out = list(map(accept, map(self._chunk_block(0, width).__getitem__, slices)))
        short = [e for e, d in enumerate(out) if len(d) < need]
        index = 1
        while short:
            chunks = self._chunk_block(index, width)
            for e in short:
                out[e] += accept(chunks[slices[e]])
            short = [e for e in short if len(out[e]) < need]
            index += 1
        return [d[:need] for d in out]

    def _lane_digits(
        self, path: PathLike, attempt: int, p: int, count: int
    ) -> bytes | list[int]:
        per = _BLOCK_BITS // (p - 1).bit_length()
        if per == 0:
            raise ValueError("a digit must fit in one 512-bit block")
        self._select(path, attempt)
        return self._slice_digits(p, 1, per, count)[0]

    # -- scalar draws ---------------------------------------------------------

    def digits(
        self, path: PathLike, count: int, p: int, attempt: int = 0
    ) -> list[int]:
        """First `count` base-p digits of the address's digit stream."""
        return list(self._lane_digits(path, attempt, p, count))

    def residue(self, path: PathLike, p: int, precision: int, attempt: int = 0) -> int:
        """Uniform residue in [0, p^precision) read from the address's digits."""
        if p == 2:
            self._select(path, attempt)
            nblocks = -(-precision // _BLOCK_BITS)
            raw = b"".join([self._block(i) for i in range(nblocks)])
            return int.from_bytes(raw, "little") & ((1 << precision) - 1)
        return _from_digits(self._lane_digits(path, attempt, p, precision), p)

    def uniform_int(self, path: PathLike, bound: int) -> int:
        """Uniform integer in [0, bound) via fixed-width rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        return self._lane_digits(path, 0, bound, 1)[0]

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
        cap = _slice_bits(count, p)
        if cap == 0:
            return [
                self.digits(path + (e,), 1, p, attempt)[0] for e in range(count)
            ]
        self._select(path, attempt)
        if p == 2:
            return _bit_slices(self._block(0), count, cap, 1)
        per = cap // (p - 1).bit_length()
        return [d[0] for d in self._slice_digits(p, count, per, 1)]

    def sliced_residues(
        self, path: PathLike, count: int, p: int, precision: int, attempt: int = 0
    ) -> list[int]:
        """All `count` residues of a sliced draw, in [0, p^precision)."""
        cap = _slice_bits(count, p)
        if cap == 0:
            return [
                self.residue(path + (e,), p, precision, attempt)
                for e in range(count)
            ]
        self._select(path, attempt)
        if p == 2:
            if precision <= cap:
                return _bit_slices(self._block(0), count, cap, precision)
            nblocks = -(-precision // cap)
            blocks = [int.from_bytes(self._block(i), "little") for i in range(nblocks)]
            mask_full = (1 << precision) - 1
            cap_mask = (1 << cap) - 1
            out = []
            for e in range(count):
                lo = e * cap
                acc = 0
                for i, b in enumerate(blocks):
                    acc |= ((b >> lo) & cap_mask) << (cap * i)
                out.append(acc & mask_full)
            return out
        per = cap // (p - 1).bit_length()
        return [_from_digits(d, p) for d in self._slice_digits(p, count, per, precision)]
