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
@pytest.mark.parametrize("count", [1, 7, 20, 40, 41])
def test_rows_match_fresh_numpy_streams(seed, count):
    keys = np.arange(10**6, 10**6 + 1500, dtype=np.uint64)
    assert np.array_equal(normals(seed, keys, count), numpy_rows(seed, keys, count))


def test_slow_path_rows_match_over_many_keys(monkeypatch):
    # A quarter of 20-word rows leave the fast path somewhere; about one
    # in 200 meets the tail layer, which numpy finishes.
    deferred = []
    real_numpy_rows = streams._numpy_rows

    def recording(out, seed, keys, rows):
        deferred.append(len(rows))
        real_numpy_rows(out, seed, keys, rows)

    monkeypatch.setattr(streams, "_numpy_rows", recording)
    keys = np.arange(30_000, dtype=np.uint64)
    got = normals(77, keys, 20)
    assert sum(deferred) > 0
    monkeypatch.setattr(streams, "_numpy_rows", real_numpy_rows)
    assert np.array_equal(got, numpy_rows(77, keys, 20))


@pytest.mark.parametrize(
    "name, value", [("_TIE_TOL", 2.0), ("_EXTRA_BLOCKS", 0), ("_EXTRA_BLOCKS", 1)]
)
def test_rows_left_to_numpy_stay_exact(monkeypatch, name, value):
    # Every slow word counted as a tie, or too few spare words: the rows
    # affected go to numpy and the result does not change.
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


def test_empty_and_single_key():
    assert normals(1, np.arange(0, dtype=np.uint64), 20).shape == (0, 20)
    assert np.array_equal(normals(1, [3], 20), numpy_rows(1, [3], 20))
