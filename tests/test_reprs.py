"""The numpy CSV kernel of `simulate` against Python's own repr."""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tentspec import _reprs


def reference(first, block, last):
    return "".join(
        f"{first + i},{','.join(map(repr, row))},{end!r}\r\n"
        for i, (row, end) in enumerate(zip(block.tolist(), last.tolist()))
    ).encode()


def assert_rows_match(values, width=100, first=0):
    """values as rows of `width` fields (the last one the `last` column),
    formatted 50 rows a call in one workspace, as `simulate` formats its
    chunks."""
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.full(-len(values) % width, 0.5)]).reshape(-1, width)
    block, last = values[:, :-1], values[:, -1]
    workspace = _reprs.Workspace(50, width - 1)
    got = b"".join(
        workspace.csv_rows(first + i, block[i : i + 50], last[i : i + 50])
        for i in range(0, len(block), 50)
    )
    want = reference(first, block, last)
    if got != want:
        pairs = zip(got.replace(b"\r\n", b",").split(b","), want.replace(b"\r\n", b",").split(b","))
        bad = [(g, w) for g, w in pairs if g != w]
        raise AssertionError(f"{len(bad)} fields differ from repr, first {bad[:5]}")


def edge_values():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += [math.nan, math.inf, -math.inf, 0.1, 0.2, 0.3, 0.5, 1.0, 123.0, 1e-5, 2.5e-05]
    for e in range(-8, 17):
        p = 10.0**e
        values += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
    for p in (1e-6, 1e-4, 1e15, 1e16, 1e17, 9007199254740992.0):
        values += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
    values += [2.0**e for e in range(-40, 61)]
    values += [-v for v in values]
    # 17-digit exact decimals: odd multiples of small powers of two
    values += [(2**52 + 2 * i + 1) * 2.0**e for i in range(20) for e in range(-6, 1)]
    values += [70368744177664.125, 2000000000000000.5, 1234567890123456.7]
    # short decimals at every exponent of both forms
    values += [float(f"{d}e{e}") for d in (1, 5, 12, 999, 1234567) for e in range(-9, 18)]
    return values


class TestAgainstRepr:
    def test_edge_families(self):
        assert_rows_match(edge_values(), width=7)

    def test_random_bit_patterns_in_the_kernel_range(self):
        # exponents 2^-21 .. 2^57 cover the kernel's [1e-6, 1e17) and its edges
        rng = np.random.default_rng(2024)
        mantissa = rng.integers(0, 1 << 52, 1_000_000, dtype=np.uint64)
        exponent = rng.integers(1023 - 21, 1023 + 58, 1_000_000).astype(np.uint64)
        assert_rows_match((exponent << np.uint64(52) | mantissa).view(np.float64), width=1000)

    def test_random_bit_patterns_over_all_doubles(self):
        rng = np.random.default_rng(7)
        assert_rows_match(rng.integers(0, 1 << 64, 50_000, dtype=np.uint64).view(np.float64))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(), min_size=2, max_size=40))
    def test_any_floats(self, values):
        assert_rows_match(values, width=len(values))

    def test_steps_are_str_of_int(self):
        block = np.array([[0.25, 1.5]] * 3)
        last = np.array([1e-7, 0.0, 7.0])
        assert _reprs.Workspace(3, 2).csv_rows(99_999_999_999, block, last) == (
            b"99999999999,0.25,1.5,1e-07\r\n"
            b"100000000000,0.25,1.5,0.0\r\n"
            b"100000000001,0.25,1.5,7.0\r\n"
        )


def test_the_kernel_decides_its_domain():
    """Away from powers of two and of ten, values in [1e-6, 1e17) take no
    repr fallback; outside, every value does."""
    rng = np.random.default_rng(5)
    inside = 10.0 ** rng.uniform(-6, 17, 100_000)
    ok = _reprs._decimal(inside, _reprs.Workspace(len(inside), 0))[0]
    assert ok.mean() > 0.9999
    tiny, huge = 10.0 ** rng.uniform(-300, -6.001, 1000), 10.0 ** rng.uniform(17.001, 300, 1000)
    outside = np.concatenate([-inside, tiny, huge, [0.0, 0.5, 2.0, math.nan, math.inf]])
    assert not _reprs._decimal(outside, _reprs.Workspace(len(outside), 0))[0].any()


# a repr of 22 bytes fills its slot up to the separator, one of 23 or 24
# does not fit it; the kernel's own longest body is 22 bytes too
SLOT_EDGES = [
    -2.2250738585072014e-308,  # 24
    -1.2345678901234567e-100,  # 24
    1.2345678901234567e-100,  # 23
    -1.2345678901234566e-07,  # 23
    1.2345678901234567e-07,  # 22
    0.00012345678901234567,  # 22, from the kernel
    math.nan,
    -math.inf,
    0.0,
]


def test_slot_edges_in_every_column_and_chunk_shape():
    """Each edge value in the first, a middle and the last (CRLF) column,
    in one-row and many-row chunks at steps across 10^k, formatted in one
    reused workspace."""
    fill = np.array([0.1, 123.0, 2.5e-05, 0.30000000000000004, 1e16])
    workspace = _reprs.Workspace(40, len(fill) - 1)
    for value in SLOT_EDGES:
        for rows in (1, 40):
            for column in (0, 2, len(fill) - 1):
                values = np.tile(fill, (rows, 1))
                values[rows // 2, column] = value
                block, last = values[:, :-1], values[:, -1]
                for k in range(16):
                    first = max(0, 10**k - (rows + 1) // 2)
                    got = workspace.csv_rows(first, block, last)
                    assert got == reference(first, block, last), (value, rows, column, first)


def test_chunks_allocate_no_field_sized_arrays():
    """Once its workspace exists, formatting chunks of n = 12's shape (136
    rows of 28 densities and a distance) allocates each chunk's bytes and a
    few small arrays: a field-sized temporary is 32 KB, and the kernel's
    temporaries came to 1 MB a chunk when each call made its own."""
    rng = np.random.default_rng(12)
    chunks = [rng.uniform(1e-4, 0.2, (136, 29)) for _ in range(4)]
    for chunk in chunks:
        chunk[:, -1] = 10.0 ** rng.uniform(-14, -1, 136)
    workspace = _reprs.Workspace(137, 28)
    workspace.csv_rows(0, chunks[0][:, :-1], chunks[0][:, -1])
    tracemalloc.start()
    try:
        for i, chunk in enumerate(chunks):
            workspace.csv_rows(136 * i, chunk[:, :-1], chunk[:, -1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the slots as bytes (98 KB) and translate's output, allocated at that
    # size before the NULs go, peak at 196 KB
    assert peak < 256 * 1024
