"""Structural properties of finite lattices: distributivity, modularity, morphisms.

Figure 1 of the paper exhibits an interpretation whose lattice ``L(I)`` is
*not* distributive (``B * (A + C) ≠ (B*A) + (B*C)``); Figure 2 rests on an
*isomorphism* between two interpretation lattices.  This module provides the
corresponding checks, plus homomorphism verification (used in the proof of
Theorem 7, where ``L(I) → L(J)`` is a surjective homomorphism) and an
invariant-pruned isomorphism finder adequate for the small lattices in the
paper's constructions.

All checks run on the id-level kernel of
:class:`~repro.lattice.core.FiniteLattice`: the triple loops index flat
id → id tables (machine ints, no element hashing) and the order tests are
bitset-row operations, so the same sweep that took O(n³) dict lookups on the
seed representation is now table gathers.  Any other object with the
``elements``/``meet``/``join`` duck surface (notably
:class:`repro.lattice.oracle.OracleFiniteLattice`) is adapted by probing its
operations once into the same table form; the elementwise originals survive
in :mod:`repro.lattice.oracle` as cross-check oracles.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Optional

from repro.bits import bit_positions
from repro.errors import LatticeError
from repro.lattice.core import FiniteLattice, LatticeElement, iter_cover_ids, order_rows


class _Tables:
    """Id-level view of a lattice: elements, flat meet/join tables, order bitsets."""

    __slots__ = ("elements", "meet", "join", "up", "down")

    def __init__(self, elements, meet, join, up, down) -> None:
        self.elements = elements
        self.meet = meet
        self.join = join
        self.up = up
        self.down = down


def _tables(lattice) -> _Tables:
    """The id-level kernel of a lattice (borrowed from :class:`FiniteLattice`, probed otherwise)."""
    if isinstance(lattice, FiniteLattice):
        return _Tables(
            lattice.elements, lattice.meet_ids, lattice.join_ids, lattice.up_masks, lattice.down_masks
        )
    elements = list(lattice.elements)
    index = {element: i for i, element in enumerate(elements)}
    meet = [[index[lattice.meet(x, y)] for y in elements] for x in elements]
    join = [[index[lattice.join(x, y)] for y in elements] for x in elements]
    return _Tables(elements, meet, join, *order_rows(meet))


def is_distributive(lattice) -> bool:
    """True iff ``x * (y + z) = (x*y) + (x*z)`` for all triples (equivalently the dual law)."""
    return find_distributivity_violation(lattice) is None


def find_distributivity_violation(
    lattice,
) -> Optional[tuple[LatticeElement, LatticeElement, LatticeElement]]:
    """A triple witnessing non-distributivity, or ``None`` if the lattice is distributive."""
    tables = _tables(lattice)
    meet = tables.meet
    join = tables.join
    n = len(tables.elements)
    for x in range(n):
        meet_x = meet[x]
        for y in range(n):
            join_y = join[y]
            meet_xy = meet_x[y]
            join_of_meet_xy = join[meet_xy]
            for z in range(n):
                if meet_x[join_y[z]] != join_of_meet_xy[meet_x[z]]:
                    return (tables.elements[x], tables.elements[y], tables.elements[z])
    return None


def is_modular(lattice) -> bool:
    """True iff ``x ≤ z`` implies ``x + (y * z) = (x + y) * z`` for all triples.

    The outer loop ranges only over comparable pairs ``x ≤ z`` — read off the
    up-set bitset rows — instead of filtering all n² pairs.
    """
    tables = _tables(lattice)
    meet = tables.meet
    join = tables.join
    n = len(tables.elements)
    for x in range(n):
        join_x = join[x]
        for z in bit_positions(tables.up[x]):
            meet_z_column = meet[z]
            for y in range(n):
                if join_x[meet_z_column[y]] != meet[join_x[y]][z]:
                    return False
    return True


def is_homomorphism(
    source,
    target,
    mapping: Mapping[LatticeElement, LatticeElement] | Callable[[LatticeElement], LatticeElement],
) -> bool:
    """True iff ``mapping`` preserves meets and joins from ``source`` into ``target``."""
    get = mapping.__getitem__ if isinstance(mapping, Mapping) else mapping
    source_tables = _tables(source)
    target_tables = _tables(target)
    target_index = {element: i for i, element in enumerate(target_tables.elements)}
    n = len(source_tables.elements)
    image: list[int] = []
    for element in source_tables.elements:
        value = get(element)  # a Mapping without the key raises KeyError, as the seed did
        target_id = target_index.get(value)
        if target_id is None:
            raise LatticeError(f"{value!r} is not an element of the target lattice")
        image.append(target_id)
    meet_s = source_tables.meet
    join_s = source_tables.join
    meet_t = target_tables.meet
    join_t = target_tables.join
    for x in range(n):
        image_x = image[x]
        meet_row = meet_s[x]
        join_row = join_s[x]
        meet_t_row = meet_t[image_x]
        join_t_row = join_t[image_x]
        for y in range(n):
            if image[meet_row[y]] != meet_t_row[image[y]]:
                return False
            if image[join_row[y]] != join_t_row[image[y]]:
                return False
    return True


def _profiles(tables: _Tables) -> list[tuple[int, int, int, int]]:
    """Per-id isomorphism invariants: |down-set|, |up-set|, lower covers, upper covers."""
    n = len(tables.elements)
    up = tables.up
    down = tables.down
    lower_covers = [0] * n
    upper_covers = [0] * n
    for i, j in iter_cover_ids(up, down):
        upper_covers[i] += 1
        lower_covers[j] += 1
    return [
        (down[i].bit_count(), up[i].bit_count(), lower_covers[i], upper_covers[i])
        for i in range(n)
    ]


def find_isomorphism(
    first, second
) -> Optional[dict[LatticeElement, LatticeElement]]:
    """A lattice isomorphism between the two lattices, or ``None``.

    Backtracking over id assignments, pruned by matching each element's
    order "profile" — (|down-set|, |up-set|, lower covers, upper covers),
    all read off the bitset rows — and by checking order- and
    meet/join-compatibility against the partial assignment.  Intended for
    the ≤ ~20 element lattices of the paper's figures; Theorem 5's Figure 2
    pair has 8 elements each.
    """
    if len(first.elements) != len(second.elements):
        return None
    first_tables = _tables(first)
    second_tables = _tables(second)
    n = len(first_tables.elements)

    first_profiles = _profiles(first_tables)
    second_profiles = _profiles(second_tables)
    second_by_profile: dict[tuple[int, int, int, int], list[int]] = {}
    for j in range(n):
        second_by_profile.setdefault(second_profiles[j], []).append(j)

    # Group the source ids by profile; candidates must share the profile.
    source_ids = sorted(
        range(n),
        key=lambda i: (
            len(second_by_profile.get(first_profiles[i], [])),
            repr(first_tables.elements[i]),
        ),
    )

    up_f = first_tables.up
    up_s = second_tables.up
    meet_f = first_tables.meet
    join_f = first_tables.join
    meet_s = second_tables.meet
    join_s = second_tables.join

    assignment: dict[int, int] = {}
    used = 0

    def consistent(i: int, image: int) -> bool:
        for other, other_image in assignment.items():
            if (up_f[i] >> other) & 1 != (up_s[image] >> other_image) & 1:
                return False
            if (up_f[other] >> i) & 1 != (up_s[other_image] >> image) & 1:
                return False
            meet_image = assignment.get(meet_f[i][other])
            if meet_image is not None and meet_image != meet_s[image][other_image]:
                return False
            join_image = assignment.get(join_f[i][other])
            if join_image is not None and join_image != join_s[image][other_image]:
                return False
        return True

    def backtrack(position: int) -> bool:
        nonlocal used
        if position == n:
            return all(
                assignment[meet_f[x][y]] == meet_s[assignment[x]][assignment[y]]
                and assignment[join_f[x][y]] == join_s[assignment[x]][assignment[y]]
                for x in range(n)
                for y in range(n)
            )
        i = source_ids[position]
        for image in second_by_profile.get(first_profiles[i], []):
            if (used >> image) & 1 or not consistent(i, image):
                continue
            assignment[i] = image
            used |= 1 << image
            if backtrack(position + 1):
                return True
            del assignment[i]
            used &= ~(1 << image)
        return False

    if backtrack(0):
        return {
            first_tables.elements[i]: second_tables.elements[image]
            for i, image in assignment.items()
        }
    return None


def are_isomorphic(first, second) -> bool:
    """True iff the two lattices are isomorphic (ignoring constants)."""
    return find_isomorphism(first, second) is not None
