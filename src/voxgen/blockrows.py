"""A block map's rows as columns: what a ``BlockMapDocument`` holds, and how rows are checked into it.

``BlockRows`` is the read-only view a document keeps: three ``array('q')``
columns of coordinates and a per-row index into a table of the distinct
materials, about 28 bytes a row, read as plain ``(x, y, z, material)``
tuples in cell order. ``_Columns`` builds one, a batch of rows at a time,
for the document, for a grid's projection and for the block-map reader.
The row check itself is the document's (``serialization``); here a batch
of plain values is checked whole, a column at a time, and anything else
refused, for the document to check row by row.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from collections.abc import Sequence
from typing import Any, Iterator

from .errors import ValidationError
from .geometry import _is_utf8

# A block as the block map stores it: its cell, then its material.
BlockRow = tuple[int, int, int, str]

_X, _Y, _Z, _MATERIAL = map(operator.itemgetter, range(4))


class BlockRows(Sequence):
    """A block map's rows as its document holds them: columns, read as ``(x, y, z, material)`` tuples in cell order.

    ``x``, ``y`` and ``z`` are read-only memoryviews of signed 64-bit ints,
    ``materials`` holds each distinct material once, and ``material_index``
    gives each row's place in it. As a sequence it is read-only: an index
    gives a row tuple, a slice a tuple of them. It equals another BlockRows
    or a tuple holding the same rows, and hashes and reprs as that tuple.
    """

    __slots__ = ("x", "y", "z", "materials", "material_index")

    def __init__(self, *_: Any) -> None:
        raise TypeError("BlockRows are made only by BlockMapDocument, which checks their rows")

    @classmethod
    def _of(cls, x: array, y: array, z: array, materials: tuple[str, ...], material_index: array) -> "BlockRows":
        """The view of checked columns whose rows are in cell order; the arrays are kept, read-only."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (x, y, z, materials, material_index)):
            object.__setattr__(self, name, value if name == "materials" else memoryview(value).toreadonly())
        return self

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(zip(self.x[index], self.y[index], self.z[index],
                             map(self.materials.__getitem__, self.material_index[index])))
        return self.x[index], self.y[index], self.z[index], self.materials[self.material_index[index]]

    def __iter__(self) -> Iterator[BlockRow]:
        return zip(self.x, self.y, self.z, map(self.materials.__getitem__, self.material_index))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, tuple):
            return tuple(self) == other
        if not isinstance(other, BlockRows):
            return NotImplemented
        if not (self.x == other.x and self.y == other.y and self.z == other.z):
            return False
        if self.materials == other.materials:
            return self.material_index == other.material_index
        return all(map(operator.eq, map(self.materials.__getitem__, self.material_index),
                       map(other.materials.__getitem__, other.material_index)))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self) -> tuple:
        return BlockRows._of, (self.x.obj, self.y.obj, self.z.obj, self.materials, self.material_index.obj)


class _Columns:
    """Block columns as rows are checked into them, a batch at a time; ``rows()`` is their BlockRows.

    ``add`` takes a batch as four columns and checks each column whole, in
    C: every coordinate a plain int on the signed 64-bit lattice (the range
    is ``array('q')``'s), the name rule once per material not met before.
    ``append`` takes one row that the caller has checked. ``rows`` sorts
    the rows once, only if their cells did not arrive strictly ascending.
    """

    __slots__ = ("x", "y", "z", "material_index", "codes", "ascending")

    def __init__(self) -> None:
        self.x, self.y, self.z, self.material_index = array("q"), array("q"), array("q"), array("I")
        self.codes: dict[str, int] = {}  # each material's place in the table, in the order met
        self.ascending = True

    def add(self, xs: Sequence, ys: Sequence, zs: Sequence, materials: Sequence) -> bool:
        """Append the rows of these four equal-length columns, or append nothing and return False if any value fails."""
        if not set(map(type, itertools.chain(xs, ys, zs))) <= {int}:
            return False
        try:
            x, y, z = array("q", xs), array("q", ys), array("q", zs)
            fresh = [material for material in dict.fromkeys(materials) if material not in self.codes]
        except (OverflowError, TypeError):
            return False
        if not all(type(name) is str and name and (name.isascii() or _is_utf8(name)) for name in fresh):
            return False
        if self.ascending and x:
            # Each cell against the next; zip reuses its result tuple, so no tuple is built per row.
            following = zip(*(itertools.islice(column, 1, None) for column in (xs, ys, zs)))
            self.ascending = ((not self.x or (self.x[-1], self.y[-1], self.z[-1]) < (xs[0], ys[0], zs[0]))
                              and all(map(operator.lt, zip(xs, ys, zs), following)))
        self.codes.update(zip(fresh, itertools.count(len(self.codes))))
        self.material_index.extend(map(self.codes.__getitem__, materials))
        self.x += x
        self.y += y
        self.z += z
        return True

    def append(self, row: BlockRow) -> None:
        """Append one checked row; an int subclass is kept as its int. The rows are then sorted at the end."""
        x, y, z, material = row
        self.x.append(x)
        self.y.append(y)
        self.z.append(z)
        self.material_index.append(self.codes.setdefault(material, len(self.codes)))
        self.ascending = False

    def rows(self) -> BlockRows:
        """The rows in cell order; ValidationError if two share a cell."""
        materials = tuple(self.codes)
        if not self.ascending:
            # Sorted as tuples, which is cell order because no two share a cell.
            rows = sorted(zip(self.x, self.y, self.z, map(materials.__getitem__, self.material_index)))
            # Each row's cell against the next one's; zip reuses its result tuple, so no tuple is built per row.
            cells = [zip(*(map(axis, itertools.islice(rows, start, None)) for axis in (_X, _Y, _Z)))
                     for start in (0, 1)]
            duplicate = next(itertools.compress(rows, map(operator.eq, *cells)), None)
            if duplicate is not None:
                raise ValidationError(f"duplicate block coordinates {duplicate[:3]}")
            self.x, self.y, self.z = (array("q", map(axis, rows)) for axis in (_X, _Y, _Z))
            self.material_index = array("I", map(self.codes.__getitem__, map(_MATERIAL, rows)))
        return BlockRows._of(self.x, self.y, self.z, materials, self.material_index)
