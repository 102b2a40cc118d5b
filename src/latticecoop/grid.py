"""Lattice topology: strategy storage, toroidal neighbour indexing, snapshots.

Agents live on an L x L square lattice with periodic boundary conditions and
interact with their four von Neumann neighbours. Cells are stored row-major
as uint8 (1 = cooperator, 0 = defector); neighbour order is fixed as
north, east, south, west everywhere, which is what all tie-breaking in the
update rules relies on.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, field, fields
from enum import IntEnum
from functools import cache
from typing import get_args, get_origin, get_type_hints

import numpy as np

MIN_SIDE_LENGTH = 3  # below this the four neighbours are not distinct


class Strategy(IntEnum):
    """The two pure strategies of the one-shot Prisoner's Dilemma."""

    D = 0
    C = 1


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable L x L strategy lattice.

    ``cells`` is a row-major (L, L) uint8 array with values in {0, 1}
    (``Strategy.D`` / ``Strategy.C``). The array is copied and frozen on
    construction, so grids can be shared freely across workers; a pickled
    grid carries its cells alone and is checked and frozen again on arrival.

    Set with the cells, read-only: ``code``, per cell ``5 * strategy + k``
    (uint8, 0..9) with k its number of cooperating neighbours, all its base
    score depends on; and ``coop_count``, the number of cooperators x_C.
    """

    cells: np.ndarray
    code: np.ndarray = field(init=False, repr=False)
    coop_count: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.ndim != 2 or cells.shape[0] != cells.shape[1]:
            raise ValueError(f"grid cells must be a square 2-D array, got shape {cells.shape}")
        if cells.shape[0] < MIN_SIDE_LENGTH:
            raise ValueError(f"side length must be >= {MIN_SIDE_LENGTH}, got {cells.shape[0]}")
        unsigned = cells.dtype in (np.uint8, np.bool_)  # no negatives: max() <= 1 suffices
        if not (cells.max() <= 1 if unsigned else np.isin(cells, (0, 1)).all()):
            raise ValueError("grid cells must contain only 0 (D) and 1 (C)")
        self._derive(np.ascontiguousarray(cells, dtype=np.uint8).copy())

    @classmethod
    def _owning(cls, cells: np.ndarray) -> Grid:
        """Grid over ``cells`` itself, frozen in place with no check or copy.

        Only for a 0/1 uint8 (L, L) array that the caller has just built and
        that nothing else references: the update rules' next generation.
        """
        g = object.__new__(cls)
        g._derive(np.ascontiguousarray(cells))
        return g

    def _derive(self, cells: np.ndarray) -> None:
        """Freeze ``cells`` and set them with ``code`` and ``coop_count``."""
        object.__setattr__(self, "cells", _frozen(cells))
        object.__setattr__(self, "code", _frozen(cell_codes(cells, neighbour_field(cells))))
        object.__setattr__(self, "coop_count", int(np.count_nonzero(cells)))

    def __reduce__(self):
        return Grid, (self.cells,)

    @property
    def side_length(self) -> int:
        return self.cells.shape[0]

    @property
    def size(self) -> int:
        """Number of agents Z = L * L."""
        return self.cells.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.cells.shape == other.cells.shape and bool(
            np.array_equal(self.cells, other.cells)
        )


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


# Per declared field type: the values it accepts and how an error names them.
# Python counts a bool as an int, so only a bool field takes one; NumPy's
# np.bool_ is neither Integral nor Real.
_SCALARS = {
    bool: ((bool, np.bool_), "true or false"),
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
}


@cache
def _checked_fields(cls: type) -> tuple[tuple, ...]:
    """(name, type, accepted types, description, whether a tuple of them) of each
    field of ``cls`` that ``check_field_types`` covers."""
    hints = get_type_hints(cls)
    checked = []
    for f in fields(cls):
        hint = hints[f.name]
        many = get_origin(hint) is tuple
        typ = get_args(hint)[0] if many else hint
        if typ in _SCALARS:
            checked.append((f.name, typ, *_SCALARS[typ], many))
    return tuple(checked)


def _accepts(value, typ: type, accepts) -> bool:
    return isinstance(value, accepts) and (typ is bool or not isinstance(value, bool))


def check_field_types(obj) -> None:
    """Check each bool, int, float or str field of a frozen config dataclass against
    its declared type, and store it as that plain Python type.

    NumPy integers pass as ints, any real number as a float. A ``tuple[...]``
    of such a type takes a tuple, list or 1-D array whose items each pass, and
    is stored as a tuple. Other fields (nested dataclasses, unions) are not
    checked. A wrong type, or an integer too large for a float field, raises
    ValueError naming the field.
    """
    for name, typ, accepts, described, many in _checked_fields(type(obj)):
        value = getattr(obj, name)
        if many:
            listed = isinstance(value, (tuple, list)) or (
                isinstance(value, np.ndarray) and value.ndim == 1
            )
            if not (listed and all(_accepts(item, typ, accepts) for item in value)):
                raise ValueError(f"{name} must be a list, each item {described}, got {value!r}")
        elif not _accepts(value, typ, accepts):
            raise ValueError(f"{name} must be {described}, got {value!r}")
        try:
            value = tuple(map(typ, value)) if many else typ(value)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float, got {value!r}") from None
        object.__setattr__(obj, name, value)


def neighbour_field(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's (N, E, S, W) neighbour values as read-only views of one
    (..., L+2, L+2) copy of ``values`` inside a one-cell halo that wraps the torus.

    ``values`` is one (L, L) lattice or a stack of them, (..., L, L), each its
    own torus. ``north[..., r, c]`` is ``values[..., (r-1) % L, c]``; east,
    south, west likewise.
    """
    length = values.shape[-1]
    padded = np.empty((*values.shape[:-2], length + 2, length + 2), dtype=values.dtype)
    padded[..., 1:-1, 1:-1] = values
    wrap_halo(padded)
    padded.setflags(write=False)
    return (padded[..., :-2, 1:-1], padded[..., 1:-1, 2:],
            padded[..., 2:, 1:-1], padded[..., 1:-1, :-2])


def wrap_halo(padded: np.ndarray) -> None:
    """Fill the one-cell halo of each (..., L+2, L+2) lattice in ``padded`` from
    the opposite edge of its interior, in place: two row copies, then two
    column copies."""
    padded[..., 0, :], padded[..., -1, :] = padded[..., -2, :], padded[..., 1, :]
    padded[..., 0], padded[..., -1] = padded[..., -2], padded[..., 1]


def cell_codes(cells: np.ndarray, field, out: np.ndarray | None = None) -> np.ndarray:
    """Per cell ``5 * strategy + k`` (uint8, 0..9), k its number of cooperating
    neighbours, from 0/1 uint8 ``cells`` and their (N, E, S, W) ``field`` of the
    same shape (``neighbour_field``), written into ``out`` when given."""
    code = np.multiply(cells, np.uint8(5), out=out)
    for neighbour in field:
        code += neighbour
    return code


def where_cells(mask: np.ndarray, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``np.where(mask, new, old)`` for uint8 values under a 0/1 mask (bool or uint8),
    as an XOR, a multiply by the mask and an XOR (np.where is slow on bytes)."""
    picked = new ^ old
    picked *= mask.view(np.uint8)
    picked ^= old
    return picked


def choose_neighbour(u: np.ndarray, field: tuple) -> np.ndarray:
    """Per cell, entry ``floor(4 * u)`` of its (N, E, S, W) ``field`` values.

    ``field`` is ``neighbour_field`` of a uint8 array and ``u`` holds uniforms
    in [0, 1). ``4 * u`` is exact, so ``floor(4 * u) < k`` exactly when
    ``u < k / 4``: three ``where_cells`` under the masks ``u < k / 4`` build
    the result with no index array.
    """
    north, east, south, west = field
    return where_cells(
        u < 0.5, where_cells(u < 0.25, north, east), where_cells(u < 0.75, south, west)
    )


def first_max(best: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Per cell, the largest of the candidate keys ``best, *rest`` plus a position
    bonus (the last gets 0, each earlier one 2 more), written into ``best``.

    For uint8 keys ``rank * step + strategy`` with ``step > 2 * len(rest) + 1``,
    a rank step outweighs bonus plus strategy and equal ranks go by bonus, so
    the low bit of the result is the strategy of the first candidate with the
    largest rank. The bonuses are added Horner-style, 2 before each maximum.
    Imitate-best runs it only where a tie at the largest rank can mix the
    strategies (``best_strategy``); ``interference`` runs it for each cell's
    best neighbour.
    """
    for key in rest:
        best += 2
        np.maximum(best, key, out=best)
    return best


def best_strategy(
    own: np.ndarray, field, ordered: bool, out: np.ndarray | None = None
) -> np.ndarray:
    """Imitate-best on uint8 keys ``rank << 4 | strategy`` (``game.key_table``):
    per cell the strategy of the first of ``own`` and its (N, E, S, W) ``field``
    with the largest rank, written into ``out`` (default ``own``).

    With ``ordered`` (``game.needs_tie_order``) the tie order decides, through
    ``first_max``. Without it the candidates at the largest rank play one
    strategy, so the largest key carries it: ``out`` takes the maximum of
    ``own`` and N, then of E, S and W in place, with no copy and no bonus adds.
    """
    if out is None:
        out = own
    if ordered:
        if out is not own:
            np.copyto(out, own)
        first_max(out, *field)
    else:
        north, *rest = field
        np.maximum(own, north, out=out)
        for key in rest:
            np.maximum(out, key, out=out)
    out &= 1
    return out


def coop_count(g: Grid) -> int:
    """Number of cooperators x_C currently on the grid."""
    return g.coop_count


def grid_hash(g: Grid) -> int:
    """Deterministic 64-bit digest of (L, cells).

    blake2b (digest_size=8) over the side length as an 8-byte little-endian
    unsigned integer followed by the row-major uint8 cell bytes. Stable
    across runs and platforms.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(g.side_length.to_bytes(8, "little"))
    h.update(g.cells.tobytes())
    return int.from_bytes(h.digest(), "little")


def random_grid(
    side_length: int,
    coop_probability: float,
    rng: np.random.Generator,
    exact_fraction: bool = False,
) -> Grid:
    """Random initial grid, each cell independently C with ``coop_probability``.

    Consumes the generator row-major: one uniform draw per cell, cell i
    compared against the probability. With ``exact_fraction`` the grid
    instead holds exactly round(p * Z) cooperators at positions given by a
    single rng.permutation call (sensitivity-check variant of the default
    independent Bernoulli initialisation).
    """
    if side_length < MIN_SIDE_LENGTH:
        raise ValueError(f"side length must be >= {MIN_SIDE_LENGTH}, got {side_length}")
    if not 0.0 <= coop_probability <= 1.0:
        raise ValueError(f"coop_probability must be in [0, 1], got {coop_probability}")
    z = side_length * side_length
    if exact_fraction:
        n_coop = round(coop_probability * z)
        flat = np.zeros(z, dtype=np.uint8)
        flat[rng.permutation(z)[:n_coop]] = Strategy.C.value
        cells = flat.reshape(side_length, side_length)
    else:
        draws = rng.random((side_length, side_length))
        cells = (draws < coop_probability).astype(np.uint8)
    return Grid(cells)


def format_snapshot(g: Grid) -> str:
    """Text snapshot: first line ``L=<int>``, then L lines of L chars from {C, D}."""
    length = g.side_length
    rows = np.empty((length, length + 1), dtype=np.uint8)  # each row ends in a newline
    rows[:, :-1] = ord("D")
    rows[:, :-1] -= g.cells  # C (1) is the byte below D
    rows[:, -1] = ord("\n")
    return f"L={length}\n" + rows.tobytes().decode("ascii")


def parse_snapshot(text: str) -> Grid:
    """Parse the snapshot format emitted by :func:`format_snapshot`.

    Bit-exact round-trip: ``parse_snapshot(format_snapshot(g)) == g``. Only a
    line feed (alone or after a carriage return) ends a line, and the header
    is ``L=`` followed by ASCII digits.
    """
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":  # the final line end
        lines.pop()
    if not lines or not lines[0].startswith("L="):
        raise ValueError("snapshot must start with an 'L=<int>' line")
    digits = lines[0][2:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid side length in snapshot header: {lines[0]!r}")
    length = int(digits)
    rows = lines[1:]
    if len(rows) != length:
        raise ValueError(f"snapshot declares L={length} but has {len(rows)} rows")
    cells = np.empty((length, length), dtype=np.uint8)
    for r, row in enumerate(rows):
        if len(row) != length:
            raise ValueError(f"snapshot row {r} has length {len(row)}, expected {length}")
        if row.replace("C", "").replace("D", ""):  # the row holds another character
            c = next(c for c, ch in enumerate(row) if ch not in "CD")
            raise ValueError(f"invalid cell character {row[c]!r} at row {r}, column {c}")
        cells[r] = np.frombuffer(row.encode("ascii"), np.uint8) == ord("C")
    return Grid(cells)
