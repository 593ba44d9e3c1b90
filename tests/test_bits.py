"""The set-bit kernel: table reads and chunked walks agree with a plain scan."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import bit_positions

CHUNK = 12


def _scan(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _check(mask: int) -> None:
    positions = bit_positions(mask)
    assert list(positions) == _scan(mask)
    assert all(isinstance(position, int) for position in positions)


# Masks built from 12-bit chunks, some of them empty, so wide masks with
# empty middle chunks are drawn often.
_chunked = st.lists(
    st.one_of(st.just(0), st.integers(min_value=0, max_value=(1 << CHUNK) - 1)),
    min_size=1,
    max_size=24,
).map(lambda chunks: sum(chunk << (CHUNK * i) for i, chunk in enumerate(chunks)))


class TestBitPositions:
    def test_zero_has_no_positions(self):
        assert list(bit_positions(0)) == []

    def test_every_chunk_boundary(self):
        for k in range(0, 5 * CHUNK + 2):
            _check((1 << k) - 1)
            _check(1 << k)
            _check((1 << k) + 1)

    def test_empty_middle_chunks(self):
        _check(1 | 1 << (3 * CHUNK) | 1 << (5 * CHUNK + 7))
        _check(((1 << CHUNK) - 1) << (4 * CHUNK))

    def test_wide_masks(self):
        _check((1 << 240) - 1)
        _check(int("10" * 110, 2))

    @given(st.integers(min_value=0, max_value=(1 << 256) - 1))
    @settings(deadline=None)
    def test_matches_a_scan(self, mask):
        _check(mask)

    @given(_chunked)
    @settings(deadline=None)
    def test_matches_a_scan_on_chunked_masks(self, mask):
        _check(mask)

    @given(st.integers(min_value=0, max_value=(1 << CHUNK) - 1))
    @settings(deadline=None)
    def test_table_reads(self, mask):
        _check(mask)
