"""numpy's per-key Philox normal streams, computed for many keys at once.

``normals(seed, keys, count)`` returns in row i exactly what
``Generator(Philox(key=[seed, keys[i]])).standard_normal(count)``
returns.  Calling numpy once per key costs a few microseconds of Python
per row, which dominates short rows.  Here the keys of one call take
one pass: their Philox4x64-10 blocks (Salmon et al., SC'11), a spare
block included, are computed in numpy array arithmetic and mapped to
normals through numpy's ziggurat, with its own tables, and the rows that
leave its fast path are finished from the same words.  The rare rows not
reproduced here (the tail layer, near-ties, rows that need more words
than were computed) are drawn by numpy itself, so every row is exact.
A caller may make all its passes in one workspace, as ``mcsim`` does.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["normals", "prepare"]

_M32 = np.uint64(0xFFFFFFFF)
_S9, _S11, _S32 = np.uint64(9), np.uint64(11), np.uint64(32)
_RABS_MASK = np.uint64(0x000FFFFFFFFFFFFF)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)

# Rows longer than this are left to numpy: each word takes the fast path
# with probability ~0.985, and past ~40 words a row costs more here than
# one numpy call does.
_MAX_FAST_WORDS = 40
# Philox blocks past a row's own words, computed for every row, for the
# rows that leave the fast path; a row that needs more goes to numpy.
_EXTRA_BLOCKS = 1
# A slow-path comparison this close to a tie is left to numpy: fi and exp
# here are each within an ulp of numpy's.
_TIE_TOL = 1e-12
_UINT64_MAX = 2**64 - 1


def _mulhilo(a, b: int, t):
    # a * b to 128 bits from 32-bit limbs, in place: the low word overwrites a
    # and the high word one of the four scratch arrays t, returned with the rest.
    bl, bh = np.uint64(b & 0xFFFFFFFF), np.uint64(b >> 32)
    ah, hi, al, p = t
    np.right_shift(a, _S32, out=ah)
    np.multiply(ah, bh, out=hi)
    ah *= bl
    np.bitwise_and(a, _M32, out=al)
    np.multiply(al, bl, out=p)
    p >>= _S32
    ah += p  # u = ah bl + (al bl >> 32)
    al *= bh
    np.bitwise_and(ah, _M32, out=p)
    al += p  # v = al bh + (u & M32)
    ah >>= _S32
    hi += ah
    al >>= _S32
    hi += al
    a *= np.uint64(b)
    return hi, [ah, al, p]


def _philox_words(seed: int, keys: np.ndarray, state: np.ndarray, words: np.ndarray) -> None:
    """Philox4x64-10 output under key (seed, k) at counters 1, ..., blocks
    (numpy's first block is 1), written to words, one row per key, in
    stream order.  The counter is (c, 0, 0, 0): round 1 multiplies c alone
    and round 2's first product is seed * M0, both done once; rounds 2-10
    run in place in state's 8 (keys, blocks) arrays, 4 of scratch."""
    prods = [divmod(c * _PHILOX_M0, 2**64) for c in range(1, state.shape[2] + 1)]
    c_hi, c_lo = np.array(prods, dtype=np.uint64).T
    s_hi, s_lo = divmod(int(seed) * _PHILOX_M0, 2**64)
    c1, c2, c3, *t = state
    k0, k1 = np.uint64(seed), keys[:, None]
    with np.errstate(over="ignore"):
        # After round 1 the state is (seed, 0, hi(c M0) ^ k, lo(c M0)).
        np.bitwise_xor(k1, c_hi, out=c1)
        k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
        c0, free = _mulhilo(c1, _PHILOX_M1, t[:4])
        c0 ^= k0
        np.bitwise_xor(k1, c_lo ^ np.uint64(s_hi), out=c2)
        c3.fill(s_lo)
        t = free + t[4:]
        for _ in range(8):
            k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
            hi0, free = _mulhilo(c0, _PHILOX_M0, t)
            hi0 ^= c3
            hi0 ^= k1
            hi1, free = _mulhilo(c2, _PHILOX_M1, free + [c3])
            hi1 ^= c1
            hi1 ^= k0
            c0, c1, c2, c3, t = hi1, c2, hi0, c0, free + [c1]
    np.stack((c0, c1, c2, c3), axis=2, out=words.reshape(*state.shape[1:], 4))


def _fast_path(words, ki, wi, low, x, fast, scratch) -> None:
    # numpy's ziggurat: the low byte picks the layer, bit 8 the sign and
    # the next 52 bits the abscissa, accepted as is below the layer's
    # threshold.  ki and wi are indexed by the low 9 bits (the sign rides
    # along in wi); abscissae and ki are < 2^53, so compare exactly as
    # floats.  low, x and fast are filled in place; scratch is uint64.
    low = np.bitwise_and(words, np.uint64(0x1FF), out=low).view(np.int64)
    x[...] = np.bitwise_and(np.right_shift(words, _S9, out=scratch), _RABS_MASK, out=scratch)
    np.less(x, np.take(ki, low, out=scratch.view(float), mode="clip"), out=fast)
    x *= np.take(wi, low, out=scratch.view(float), mode="clip")


def _numpy_rows(ws, out: np.ndarray, seed: int, keys: np.ndarray, rows) -> None:
    # The workspace's Philox, re-keyed per row, reproduces a fresh
    # Philox(key=[seed, k]) exactly while skipping the construction cost:
    # setting the state copies it, so the dict keeps a fresh counter.
    bit_gen, rng, state = ws.philox
    for i in rows:
        state["state"]["key"][:] = seed, keys[i]
        bit_gen.state = state
        rng.standard_normal(out=out[i])


def _slow_rows(out, rows, words, x, fast, fi) -> np.ndarray:
    """Finish the rows that leave the fast path; return those left to numpy.

    Off the fast path, a word of layer idx > 0 takes the next word as a
    uniform u and keeps its abscissa x if
    (fi[idx-1] - fi[idx]) u + fi[idx] < exp(-x^2/2).  So a word is a
    draw unless the word before it is a slow draw, and a run of slow
    words alternates draw, uniform, draw, ...  A row's first count kept
    draws are its normals, unless the tail layer (idx 0), a comparison
    within _TIE_TOL of a tie or the end of its words comes first."""
    count, size = out.shape[1], words.shape[1]
    cols = np.arange(size, dtype=np.uint8)  # a row has < 256 words
    # A run of slow words starts at word 0 or after a fast word.
    start = np.maximum.accumulate(cols * np.roll(fast, 1, axis=1), axis=1)
    draw = ((cols - start) & 1) == 0
    kept = draw & fast
    at = np.flatnonzero(draw & ~fast)
    idx, xs = np.take(words.view(np.int64), at) & 0xFF, np.take(x, at)
    # A draw in a row's last word has no uniform of its own: unsure.
    u = (np.take(words, at + 1, mode="clip") >> _S11) * (1.0 / 9007199254740992.0)
    lhs = (fi[idx - 1] - fi[idx]) * u + fi[idx]
    rhs = np.exp(-0.5 * xs * xs)
    np.put(kept, at, lhs < rhs)
    unsure = at[(idx == 0) | (np.abs(lhs - rhs) <= _TIE_TOL) | (at % size == size - 1)]
    total = np.cumsum(kept, axis=1, dtype=np.uint8)  # normals kept up to each word
    lost = total[:, -1] < count
    # An unsure draw matters only if it comes before the row is full.
    lost[unsure[np.take(total, unsure) - np.take(kept, unsure) < count] // size] = True
    # The first count kept draws of a resolved row are its normals.
    out[rows[~lost]] = x[kept & (total <= count) & ~lost[:, None]].reshape(-1, count)
    return rows[lost]


class _Workspace:
    """Room for passes over up to rows keys of count normals: one block,
    allocated at the first (the draws alone where tables is None), and
    the Philox that rows left to numpy take."""

    def __init__(self, rows: int, count: int, tables):
        self.rows, self.count, self.tables = rows, count, tables
        self.size = 4 * (-(-count // 4) + _EXTRA_BLOCKS) if tables else count
        bit_gen = np.random.Philox(key=0)
        self.philox = bit_gen, np.random.Generator(bit_gen), bit_gen.state

    @functools.cached_property
    def buf(self) -> np.ndarray:
        m = self.rows * self.size  # 4 uint64 and a bool a word (_vector_fill)
        return np.empty(4 * m + m // 8 + 1 if self.tables else m, np.uint64)


def _vector_fill(ws: _Workspace, seed: int, keys: np.ndarray) -> np.ndarray:
    # words | Philox state x 2, then low and x | scratch, then the draws | fast
    k, size, count = keys.size, ws.size, ws.count
    m = k * size
    words, low, x, scratch = ws.buf[: 4 * m].reshape(4, k, size)
    _philox_words(seed, keys, ws.buf[m : 3 * m].reshape(8, k, size // 4), words)
    x, fast = x.view(float), ws.buf[4 * m :].view(bool)[:m].reshape(k, size)
    _fast_path(words, *ws.tables[:2], low, x, fast, scratch)
    out = ws.buf[3 * m : 3 * m + k * count].view(float).reshape(k, count)
    out[:] = x[:, :count]
    rows = np.nonzero(~fast[:, :count].all(axis=1))[0]
    if rows.size:
        slow = _slow_rows(out, rows, words[rows], x[rows], fast[rows], ws.tables[2])
        _numpy_rows(ws, out, seed, keys, slow)
    return out


@functools.cache
def _ziggurat_tables():
    """numpy's ziggurat tables: layer widths wi and fast-path thresholds
    ki, read off its standard_normal by feeding it chosen words, and the
    layer heights fi = exp(-x^2/2) at the layer edges x = 2^52 wi (fi[0]
    = 1 tops layer 1).  None if they do not reproduce numpy on a check
    sample."""
    bit_gen = np.random.Philox(key=0)
    rng = np.random.Generator(bit_gen)
    state = bit_gen.state

    def feed(idx: int, rabs: int):
        # The word is served from the buffer; the slow path needs more
        # words, which moves the counter.
        state["state"]["counter"][:] = 0
        state["buffer"][3] = idx | (rabs << 9)
        state["buffer_pos"] = 3
        bit_gen.state = state
        x = rng.standard_normal()
        return x, bit_gen.state["state"]["counter"][0] == 0

    top = 1 << 52
    # Abscissa 1 returns wi itself: on the fast path for every layer but
    # 1, whose slow path always keeps an x this close to 0.
    wi = np.array([feed(idx, 1)[0] for idx in range(256)])
    ki = np.zeros(256, dtype=np.uint64)
    for idx in range(256):
        # The threshold sits within a word of top * wi[idx-1] / wi[idx];
        # bracket it there and bisect, or bisect over the whole range.
        guess = int(top * wi[idx - 1] / wi[idx]) if idx > 1 else 0
        lo, hi = guess - 2, guess + 2
        if not (0 <= lo and hi < top and feed(idx, lo)[1] and not feed(idx, hi)[1]):
            lo, hi = -1, top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if feed(idx, mid)[1] else (lo, mid)
        ki[idx] = hi
    edge = wi * float(top)
    fi = np.exp(-0.5 * edge * edge)
    fi[0] = 1.0
    tables = (np.tile(ki, 2).astype(float), np.concatenate([wi, -wi]), fi)
    keys = np.arange(256, dtype=np.uint64)
    got, expected = (normals(_UINT64_MAX, keys, 40, _Workspace(256, 40, t)) for t in (tables, None))
    return tables if np.array_equal(got, expected) else None


def prepare(count: int):
    """The ziggurat tables that rows of count normals use, or None if
    numpy draws such rows.  They are built once per process (~15 ms); a
    process that forks workers calls this first so that they inherit
    them."""
    return _ziggurat_tables() if count <= _MAX_FAST_WORDS else None


def normals(seed: int, keys, count: int, ws: _Workspace | None = None) -> np.ndarray:
    """Row i is ``Generator(Philox(key=[seed, keys[i]])).standard_normal(count)``,
    bit for bit; all keys take one pass (``mcsim`` sizes it as a chunk), in
    ws, a ``_Workspace`` for >= len(keys) rows of count normals, whose next
    pass overwrites the rows, or in a workspace of their own, then copied."""
    keys = np.asarray(keys, dtype=np.uint64)
    if ws is None:
        return normals(seed, keys, count, _Workspace(keys.size, count, prepare(count))).copy()
    if ws.tables is not None:
        return _vector_fill(ws, seed, keys)
    out = ws.buf[: keys.size * count].view(float).reshape(keys.size, count)
    _numpy_rows(ws, out, seed, keys, range(keys.size))
    return out
