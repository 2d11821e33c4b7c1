"""Structured label values.

A label is a nonnegative int, a tuple of labels, or a frozenset of labels.
This small recursive space is closed under the "add more structure"
convention (layering several maps into one), carries a total order, and
serializes to JSON as integers or nested finite collections.
"""

from __future__ import annotations

from typing import Union

Label = Union[int, tuple, frozenset]


def is_label(value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return value >= 0
    if isinstance(value, tuple):
        return all(is_label(v) for v in value)
    if isinstance(value, frozenset):
        return all(is_label(v) for v in value)
    return False


def _nonnegative_int(value) -> bool:
    """True for a label int; TypeError for the ints that are not labels."""
    if not isinstance(value, int):
        return False
    if isinstance(value, bool) or value < 0:
        raise TypeError(f"not a label: {value!r}")
    return True


def label_key(value) -> bytes:
    """Total-order key. Ints sort numerically, then sets, then tuples (the
    keys start b"i", b"s(" and b"t("); every canonical code depends on
    this order."""
    if _nonnegative_int(value):
        digits = str(value).encode()
        # length-prefixed decimal keeps numeric order for nonnegative ints
        return b"i" + b"%08d" % len(digits) + digits
    if isinstance(value, tuple):
        return b"t(" + b",".join(label_key(v) for v in value) + b")"
    if isinstance(value, frozenset):
        return b"s(" + b",".join(sorted(label_key(v) for v in value)) + b")"
    raise TypeError(f"not a label: {value!r}")


def label_sorted(values) -> list:
    return sorted(values, key=label_key)


def label_to_json(value):
    if _nonnegative_int(value):
        return value
    if isinstance(value, tuple):
        return {"t": [label_to_json(v) for v in value]}
    if isinstance(value, frozenset):
        return {"s": [label_to_json(v) for v in label_sorted(value)]}
    raise TypeError(f"not a label: {value!r}")


def label_from_json(data) -> Label:
    if isinstance(data, bool):
        raise ValueError("labels are integers, tuples or sets")
    if isinstance(data, int):
        if data < 0:
            raise ValueError("labels are nonnegative")
        return data
    if isinstance(data, dict) and set(data) == {"t"}:
        return tuple(label_from_json(v) for v in data["t"])
    if isinstance(data, dict) and set(data) == {"s"}:
        return frozenset(label_from_json(v) for v in data["s"])
    raise ValueError(f"malformed label json: {data!r}")
