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

:func:`check_tables` validates every table in a decoded section, so a
truncated or mangled column is a named error, not a wrong restore.
"""

from __future__ import annotations

import binascii
from base64 import b64decode, b64encode
from collections import defaultdict
from itertools import count
from typing import Iterable

import numpy as np

__all__ = ["CODES", "StringTable", "check_tables", "column", "decode"]

#: Column code -> little-endian numpy dtype.
CODES = {"f8": "<f8", "i8": "<i8", "i4": "<i4", "u4": "<u4", "u8": "<u8",
         "u1": "u1", "str": "<i4"}


def column(values, code: str) -> dict:
    """``values`` (array-like) packed as one ``{code: base64}`` column."""
    data = np.ascontiguousarray(values, CODES[code]).tobytes()
    return {code: b64encode(data).decode("ascii")}


def decode(col: dict) -> np.ndarray:
    """The array one column holds; ``ValueError`` if it is malformed."""
    if type(col) is not dict or len(col) != 1:
        raise ValueError("a column is a one-member object")
    (code, data), = col.items()
    if code not in CODES or type(data) is not str:
        raise ValueError(f"unknown column code {code!r}")
    try:
        raw = b64decode(data, validate=True)
    except (binascii.Error, ValueError) as err:
        raise ValueError(f"bad base64: {err}") from None
    dtype = np.dtype(CODES[code])
    if len(raw) % dtype.itemsize:
        raise ValueError(f"{len(raw)} bytes is not a whole number of "
                         f"{code} items")
    return np.frombuffer(raw, dtype)


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


def check_tables(value, n_strings: int = 0, where: str = "") -> None:
    """Validate every table under ``value`` (a decoded JSON block):
    each column decodes, is ``rows`` long, and ``"str"`` indices fall in
    the nearest enclosing ``strings`` table.  ``ValueError`` names the
    offending table."""
    if type(value) is list:
        for i, item in enumerate(value):
            check_tables(item, n_strings, f"{where}[{i}]")
        return
    if type(value) is not dict:
        return
    if type(value.get("strings")) is list:
        n_strings = len(value["strings"])
    if "rows" in value:
        rows = value["rows"]
        if type(rows) is not int or rows < 0:
            raise ValueError(f"table {where or '.'} has rows={rows!r}")
        for name, col in value.items():
            if name == "rows":
                continue
            try:
                array = decode(col)
            except ValueError as err:
                raise ValueError(f"column {where}.{name}: {err}") from None
            if len(array) != rows:
                raise ValueError(f"column {where}.{name} holds {len(array)} "
                                 f"items, its table has {rows} rows")
            if "str" in col and len(array) and not (
                    0 <= array.min() and array.max() < n_strings):
                raise ValueError(f"column {where}.{name} indexes outside its "
                                 f"{n_strings} strings")
        return
    for name, item in value.items():
        check_tables(item, n_strings, f"{where}.{name}")
