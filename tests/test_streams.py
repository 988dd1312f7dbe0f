import numpy as np
import pytest

from corrconc import streams
from corrconc.streams import normals


def numpy_rows(seed, keys, count):
    rows = []
    for k in keys:
        key = np.array([seed, k], dtype=np.uint64)
        rows.append(np.random.Generator(np.random.Philox(key=key)).standard_normal(count))
    return np.array(rows).reshape(len(keys), count)


@pytest.mark.parametrize("seed", [0, 2023, 2**64 - 1])
@pytest.mark.parametrize("count", [1, 7, 18, 20, 21, 33, 40, 41])
def test_rows_match_fresh_numpy_streams(seed, count):
    keys = np.arange(10**6, 10**6 + 1500, dtype=np.uint64)
    assert np.array_equal(normals(seed, keys, count), numpy_rows(seed, keys, count))


def _philox_words(seed, keys, blocks):
    # The (keys, 4 blocks) words of one pass, in arrays of their own.
    words = np.empty((keys.size, 4 * blocks), dtype=np.uint64)
    streams._philox_words(seed, keys, np.empty((8, keys.size, blocks), dtype=np.uint64), words)
    return words


@pytest.mark.parametrize("seed", [0, 2023, 2**64 - 1])
def test_philox_words_match_numpy_raw_output(seed):
    # Every bit of every word, including the top bits that a fast-path
    # normal never reads; keys near 2**64 - 1 wrap when the key is bumped.
    keys = np.array([0, 1, 12345, 2**63, 2**64 - 3, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
    for blocks in range(1, 13):
        expected = [
            np.random.Philox(key=np.array([seed, k], dtype=np.uint64)).random_raw(4 * blocks)
            for k in keys
        ]
        assert np.array_equal(_philox_words(seed, keys, blocks), expected)


def test_slow_path_rows_match_over_many_keys(monkeypatch):
    # A quarter of 20-word rows leave the fast path somewhere; about one
    # in 20 of those meets the tail layer or a word it cannot resolve and
    # goes to numpy.  Each such row costs a numpy call, so a resolver that
    # left every slow row to numpy would be exact but ~3x slower on them.
    slow, deferred = [], []
    real_slow_rows, real_numpy_rows = streams._slow_rows, streams._numpy_rows

    def recording_slow(out, rows, *classified):
        slow.append(len(rows))
        return real_slow_rows(out, rows, *classified)

    def recording_numpy(ws, out, seed, keys, rows):
        deferred.append(len(rows))
        real_numpy_rows(ws, out, seed, keys, rows)

    monkeypatch.setattr(streams, "_slow_rows", recording_slow)
    monkeypatch.setattr(streams, "_numpy_rows", recording_numpy)
    keys = np.arange(30_000, dtype=np.uint64)
    got = normals(77, keys, 20)
    assert 0 < sum(deferred) <= 0.1 * sum(slow)
    monkeypatch.setattr(streams, "_numpy_rows", real_numpy_rows)
    assert np.array_equal(got, numpy_rows(77, keys, 20))


def _draws(words, x, fast, low, fi):
    # numpy's ziggurat one word at a time: (kept, layer 0) for each draw,
    # with kept None for a slow draw in the last word (no uniform).
    j = 0
    while j < len(words):
        if fast[j]:
            yield True, False
            j += 1
            continue
        idx = low[j] & 0xFF
        if j + 1 == len(words):
            yield None, idx == 0
            return
        u = (int(words[j + 1]) >> 11) / 2.0**53
        yield (fi[idx - 1] - fi[idx]) * u + fi[idx] < np.exp(-0.5 * x[j] * x[j]), idx == 0
        j += 2


def test_resolver_edge_rows_match_fresh_numpy_streams():
    # Rows whose computed words hold a run of >= 3 slow words, a slow draw
    # in the last word, or a tail-layer draw after the row is full.
    seed, count = 2023, 20
    keys = np.arange(30_000, dtype=np.uint64)
    ki, wi, fi = streams.prepare(count)
    words = _philox_words(seed, keys, -(-count // 4) + streams._EXTRA_BLOCKS)
    low, x, fast = np.empty(words.shape, np.int64), np.empty(words.shape), np.empty(words.shape, bool)
    streams._fast_path(words, ki, wi, low, x, fast, np.empty_like(words))
    slow = ~fast
    long_run = set(np.nonzero((slow[:, :-2] & slow[:, 1:-1] & slow[:, 2:]).any(axis=1))[0])
    last_word, tail_after_full = set(), set()
    for i in np.nonzero(slow.any(axis=1))[0]:
        kept = 0
        for keep, tail in _draws(words[i], x[i], fast[i], low[i], fi):
            if tail and kept < count:
                break  # numpy's tail loop reads the words that follow
            if tail:
                tail_after_full.add(i)
            if keep is None:
                last_word.add(i)
            kept += bool(keep)
    assert long_run and last_word and tail_after_full
    rows = sorted(long_run | last_word | tail_after_full)
    assert np.array_equal(normals(seed, keys[rows], count), numpy_rows(seed, keys[rows], count))


@pytest.mark.parametrize(
    "name, value", [("_TIE_TOL", 2.0), ("_EXTRA_BLOCKS", 0), ("_EXTRA_BLOCKS", 1)]
)
def test_rows_left_to_numpy_stay_exact(monkeypatch, name, value):
    # Every slow word counted as a tie, or no spare block or only the
    # default one: the rows affected go to numpy and the result does not
    # change.
    monkeypatch.setattr(streams, name, value)
    keys = np.arange(4000, dtype=np.uint64)
    for count in (18, 20):
        assert np.array_equal(normals(5, keys, count), numpy_rows(5, keys, count))


def test_without_tables_every_row_is_numpy(monkeypatch):
    monkeypatch.setattr(streams, "_ziggurat_tables", lambda: None)
    keys = np.arange(300, dtype=np.uint64)
    assert np.array_equal(normals(9, keys, 20), numpy_rows(9, keys, 20))


def test_tables_reproduce_installed_numpy():
    # None would mean the fast path is off and every row costs a numpy call.
    assert streams._ziggurat_tables() is not None


def test_workspace_rows_match_fresh_numpy_streams():
    # One workspace, reused as a serial simulation reuses it at n = 3, 10
    # and 20: a full 2,048-row chunk, the short last chunk of 10,000 rows
    # (1,808), then chunks of 3, 2 and 1 keys, whose row halves only just
    # fit; and one on numpy's path for a 4,000-normal row.  Each pass
    # returns a view into its workspace; without one, a copy.
    seed = 2023
    chunks = (np.arange(2048), np.arange(8192, 10_000), np.arange(5, 8), np.array([9, 4]),
              np.array([10**6]))
    for count in 6, 20, 40:
        ws = streams._Workspace(2048, count, streams.prepare(count))
        for keys in chunks:
            keys = keys.astype(np.uint64)
            got = normals(seed, keys, count, ws)
            assert np.shares_memory(got, ws.buf)
            assert np.array_equal(got, numpy_rows(seed, keys, count))
    keys = np.array([7], dtype=np.uint64)
    ws = streams._Workspace(1, 4000, streams.prepare(4000))
    assert np.array_equal(normals(seed, keys, 4000, ws), numpy_rows(seed, keys, 4000))
    assert normals(seed, keys, 4000).base is None


@pytest.mark.parametrize("rows, count", [(1, 1), (7, 6), (2048, 20), (5, 50)])
def test_workspace_block_is_line_aligned(rows, count):
    # Wherever malloc puts it, the block starts on a 64-byte line and holds
    # exactly a pass's arrays; a vector pass's draws start on 32 bytes.
    ws = streams._Workspace(rows, count, streams.prepare(count))
    m = rows * ws.size
    assert ws.buf.ctypes.data % 64 == 0
    assert ws.buf.size == (3 * m + ws.size + m // 8 + 1 if ws.tables else m)
    out = normals(3, np.arange(rows, dtype=np.uint64), count, ws)
    assert out.ctypes.data % 32 == 0
    assert np.array_equal(out, numpy_rows(3, range(rows), count))


def _plain(state):
    # A Philox state with its arrays as lists, compared value for value.
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def test_fresh_state_is_numpys_in_plain_ints():
    # numpy's path re-keys one Philox from a template of plain ints, which
    # numpy sets faster than its own arrays: the template must be a fresh
    # Philox(key=0)'s state, and hold no array or numpy scalar, which
    # would print otherwise.
    state = streams._Workspace(1, 50, None).philox[2]
    assert repr(state) == repr(_plain(np.random.Philox(key=0).state))


def test_many_re_keys_of_one_workspace():
    # One workspace on numpy's path serves passes at seeds 0, 2^63 and
    # 2^64 - 1, whose keys include all three, in no order: each row is the
    # fresh stream of its key, and setting the state leaves the template
    # fresh but for its key.
    ends = [2**64 - 1, 0, 2**63]
    keys = np.array([*ends, *range(5, 1000, 3), *ends[::-1]], dtype=np.uint64)
    ws = streams._Workspace(keys.size, 50, None)
    for seed in ends:
        assert np.array_equal(normals(seed, keys, 50, ws), numpy_rows(seed, keys, 50))
    fresh = _plain(np.random.Philox(key=0).state)
    fresh["state"]["key"] = [2**63, 2**64 - 1]
    assert ws.philox[2] == fresh


def test_empty_and_single_key():
    assert normals(1, np.arange(0, dtype=np.uint64), 20).shape == (0, 20)
    assert np.array_equal(normals(1, [3], 20), numpy_rows(1, [3], 20))
