"""The set-bit kernel under every bitset row in the package.

The ALG index (:mod:`repro.implication.index`), the Theorem 12
normalization, the chase engine's coded FDs and the finite-lattice kernel
all keep sets as Python ints and walk "each set bit of this row" in their
inner loops.  Peeling one bit at a time (``low = x & -x``) costs one Python
iteration per bit, and most rows are narrow: the ALG index's rows are under
twelve bits wide in about nine calls of ten.  :func:`bit_positions` answers
such a row with one read of a table built once at import, and walks a wider
row twelve bits at a time.

The table holds each value's positions as ``bytes`` (every position is below
256), which takes half the memory of tuples: about 190 KiB.
"""

from __future__ import annotations

from collections.abc import Sequence

_WIDTH = 12
_CHUNK = 1 << _WIDTH
_LOW = _CHUNK - 1


def _positions_table() -> list[bytes]:
    """The ascending set-bit positions of every ``_WIDTH``-bit value, by index.

    Built by doubling: the values with top bit ``k`` are the ones below
    ``1 << k`` with ``k`` appended.
    """
    table = [b""]
    for k in range(_WIDTH):
        top = bytes((k,))
        table += [positions + top for positions in table]
    return table


_TABLE = _positions_table()


def bit_positions(mask: int) -> Sequence[int]:
    """The set-bit positions of a non-negative ``mask``, ascending.

    A mask below ``2**12`` is answered with one table read (a ``bytes``
    object, which iterates as ints); a wider one is read twelve bits at a
    time, each chunk's positions shifted by its offset, into a list.
    """
    if mask < _CHUNK:
        return _TABLE[mask]
    out: list[int] = []
    offset = 0
    while mask:
        chunk = mask & _LOW
        if chunk:
            out += [offset + position for position in _TABLE[chunk]]
        mask >>= _WIDTH
        offset += _WIDTH
    return out
