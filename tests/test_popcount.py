"""The popcount kernels against Python-int bit counts.

``_row_popcount`` (every row distance in the library) and ``popcount``
(every per-element count) both count with ``np.bitwise_count``. The
reference counts bits with ``bin(x).count("1")`` and shares no code with
either.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamtree.descriptor import _row_popcount, popcount

PROPERTY = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def python_row_counts(rows, query) -> list:
    """Set bits of each row of ``rows ^ query``, by Python ints."""
    rows = np.asarray(rows)
    query = np.zeros(rows.shape[-1], dtype=np.int64) if query is None else np.asarray(query)
    query = np.broadcast_to(query, rows.shape)
    flat_rows = rows.reshape(-1, rows.shape[-1]).tolist()
    flat_query = query.reshape(-1, rows.shape[-1]).tolist()
    return [
        sum(bin(a ^ b).count("1") for a, b in zip(row, q))
        for row, q in zip(flat_rows, flat_query)
    ]


def strided(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a non-contiguous view with the same values."""
    view = np.repeat(arr, 2, axis=-1)[..., ::2]
    assert not view.flags.c_contiguous or view.size <= 1
    return view


@st.composite
def row_cases(draw):
    """(rows, query) as ``_row_popcount`` takes them.

    Widths run from 1 to 65 bytes (8 to 520 bits), so both whole-word and
    byte-path widths occur. ``rows`` is one row, as ``hamming`` passes it, or
    an (n, W) matrix; ``query`` is None, one row, or rows matching ``rows``,
    each contiguous, strided, a list or int64.
    """
    nbytes = draw(st.integers(1, 65))
    shape = (nbytes,) if draw(st.booleans()) else (draw(st.integers(0, 6)), nbytes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["random", "extreme"])) == "random":
        rows = rng.integers(0, 256, size=shape, dtype=np.uint8)
        row = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
    else:
        # Every XOR all ones: the widest distance the width allows.
        rows = np.full(shape, 0xFF, dtype=np.uint8)
        row = np.zeros(nbytes, dtype=np.uint8)
    if draw(st.booleans()):
        rows = strided(rows)
    kind = draw(st.sampled_from(["none", "row", "rows"]))
    if kind == "none":
        return rows, None
    query = row if kind == "row" else np.bitwise_xor(np.broadcast_to(row, shape), 0xA5)
    form = draw(st.sampled_from(["contiguous", "strided", "list", "int64"]))
    if form == "strided":
        query = strided(query)
    elif form == "list" and query.size:
        query = query.tolist()
    elif form == "int64":
        query = query.astype(np.int64)
    return rows, query


@PROPERTY
@given(case=row_cases())
def test_row_popcount_equals_python_bit_counts(case):
    rows, query = case
    rows_before = np.array(rows, copy=True)
    query_before = None if query is None else np.array(query, copy=True)
    got = _row_popcount(rows, query)
    assert got.dtype == np.int32
    assert np.shape(got) == rows.shape[:-1]
    assert np.ravel(got).tolist() == python_row_counts(rows, query)
    assert np.array_equal(rows, rows_before)
    assert query is None or np.array_equal(query, query_before)


@st.composite
def popcount_cases(draw):
    """A uint8 or uint64 array of up to 2-d shape, random or all ones,
    contiguous or strided."""
    dtype = draw(st.sampled_from([np.uint8, np.uint64]))
    shape = tuple(draw(st.lists(st.integers(0, 9), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        arr = rng.integers(0, np.iinfo(dtype).max, size=shape, dtype=dtype, endpoint=True)
    else:
        arr = np.full(shape, np.iinfo(dtype).max, dtype=dtype)
    if arr.ndim and draw(st.booleans()):
        arr = strided(arr)
    return arr


@PROPERTY
@given(arr=popcount_cases())
def test_popcount_equals_python_bit_counts(arr):
    before = arr.copy()
    want = [bin(int(x)).count("1") for x in arr.ravel().tolist()]
    got = popcount(arr)
    assert got.dtype == np.uint8 and got.shape == arr.shape
    assert got.ravel().tolist() == want
    assert np.array_equal(arr, before)
