"""Packed columns: how a snapshot section holds its bulk numbers.

A checkpoint's bulk state (the kernel heap, each view's live records,
the sites' queue and running columns, the RNG states) is numbers by the
thousand.  Encoding them as JSON lists costs per item; here a column is
one base64 string of little-endian bytes inside the same canonical JSON,
so it is encoded and CRC'd at ``memcpy`` speed:

* a **column** is a one-member object ``{code: base64}``, ``code`` one of
  :data:`CODES` (``"str"`` is int32 indices into the block's strings);
* a **table** is an object with an int ``rows`` and any number of
  columns (and no other members), each exactly ``rows`` long;
* a block holding ``"str"`` columns carries its own ``strings`` table,
  sorted (:class:`StringTable`), so index order is string order and a
  lexsort of indices sorts by the strings.

A checkpoint stores only the digests of this JSON, never the JSON
itself; :func:`decode` is the inverse of :func:`column`.
"""

from __future__ import annotations

from base64 import b64decode, b64encode
from collections import defaultdict
from itertools import count
from typing import Iterable

import numpy as np

__all__ = ["CODES", "StringTable", "column", "decode"]

#: Column code -> little-endian numpy dtype.
CODES = {"f8": "<f8", "i8": "<i8", "i4": "<i4", "u4": "<u4", "u8": "<u8",
         "u1": "u1", "str": "<i4"}


def column(values, code: str) -> dict:
    """``values`` (array-like) packed as one ``{code: base64}`` column."""
    data = np.ascontiguousarray(values, CODES[code]).tobytes()
    return {code: b64encode(data).decode("ascii")}


def decode(col: dict) -> np.ndarray:
    """The array one column holds: the inverse of :func:`column`."""
    (code, data), = col.items()
    return np.frombuffer(b64decode(data), CODES[code])


class StringTable:
    """The strings of one packed block.

    :meth:`codes` numbers strings in first-use order as it meets them (a
    C-level dict walk per column); :meth:`sort` then renumbers the table
    into sorted order, so the packed indices compare like the strings.
    """

    __slots__ = ("_codes",)

    def __init__(self):
        self._codes: dict[str, int] = defaultdict(count().__next__)

    def codes(self, strings: Iterable[str], n: int = -1) -> np.ndarray:
        """Provisional int32 codes (``n``: the count, when known)."""
        return np.fromiter(map(self._codes.__getitem__, strings), np.int32,
                           n)

    def sort(self) -> tuple[list[str], np.ndarray]:
        """``(strings, rank)``: the sorted table, and the array taking a
        provisional code to its index in it."""
        strings = sorted(self._codes)
        rank = np.empty(len(strings), np.int32)
        rank[np.fromiter(map(self._codes.__getitem__, strings), np.int64,
                         len(strings))] = np.arange(len(strings))
        return strings, rank

