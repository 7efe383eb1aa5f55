"""Property tests of the PSD CSV boundary: the bulk writer and parser give
the bytes and arrays of the per-row reference below."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from librotor import io
from librotor.spectrum import PsdTrace

# Hand-picked doubles next to what the float strategy draws on its own:
# subnormals, the extremes, and values that need all 17 digits.
SPECIAL = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
           1.7976931348623157e308, 0.30000000000000004, 1.0000000000000002,
           9007199254740993.0, 123456789.12345679]

finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL + [-v for v in SPECIAL]))
non_negative = st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                         st.sampled_from(SPECIAL))


def reference_bytes(trace):
    """The per-row writer the bulk one replaced."""
    lines = [io.PSD_MAGIC, "freq_hz,psd"]
    lines += [f"{f:.17g},{v:.17g}" for f, v in zip(trace.freq_hz, trace.values)]
    return ("\n".join(lines) + "\n").encode("utf-8")


@st.composite
def grid_pairs(draw):
    """Two strictly increasing grids of one length, and values for each."""
    n = draw(st.integers(16, 48))
    grid = st.lists(finite, min_size=n, max_size=n, unique=True).map(sorted)
    vals = st.lists(non_negative, min_size=n, max_size=n)
    return draw(grid), draw(vals), draw(grid), draw(vals)


@settings(max_examples=150, deadline=None)
@given(grid_pairs())
def test_psd_csv_round_trip_is_exact(pair):
    grid_a, vals_a, grid_b, vals_b = pair
    # Both traces share one array, overwritten in place between the two
    # writes: a frequency-column cache keyed on identity, or one that kept
    # a view of the array, would write the second file with the first grid.
    freq = np.array(grid_a)
    with tempfile.TemporaryDirectory() as tmp:
        written = []
        for grid, vals, name in ((grid_a, vals_a, "a.csv"),
                                 (grid_b, vals_b, "b.csv")):
            freq[:] = grid
            trace = PsdTrace(freq, np.array(vals), {"channel": "cavity_y"})
            path = os.path.join(tmp, name)
            io.write_psd_csv(path, trace)
            written.append((path, np.array(grid), np.array(vals),
                            reference_bytes(trace)))
        for path, grid, vals, expected in written:
            with open(path, "rb") as fh:
                assert fh.read() == expected
            back = io.read_psd_csv(path)
            assert back.freq_hz.tobytes() == grid.tobytes()
            assert back.values.tobytes() == vals.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 20).flatmap(
    lambda n: st.lists(st.lists(finite, min_size=n, max_size=n),
                       min_size=4, max_size=4)))
def test_format_csv_rows_matches_per_row_format(columns):
    arrays = [np.array(c, dtype=float) for c in columns]
    expected = "".join(f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}\n"
                       for a, b, c, d in zip(*arrays))
    assert io.format_csv_rows(*arrays) == expected
