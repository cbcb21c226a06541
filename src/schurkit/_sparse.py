"""The value core shared by SymFunc and SparsePoly.

A value is a header (a basis tag, a variable count) and a sparse map from
canonical keys to nonzero exact integers.  The public constructor validates
its input once; arithmetic builds new values through the trusted
constructor.  `terms` is a read-only view; library code reads `_terms`.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Iterable, Mapping

from .partitions import _int, term_key

_set = object.__setattr__


def accumulate(pairs: Iterable[tuple], start: Mapping = ()) -> dict:
    """Sum (key, coefficient) pairs onto the terms of start, then drop the
    keys whose total is zero."""
    acc = dict(start)
    get = acc.get
    for key, c in pairs:
        acc[key] = get(key, 0) + c
    for key in [key for key, c in acc.items() if not c]:
        del acc[key]
    return acc


def _field(data, name: str):
    """A field of a JSON object read back; a missing one raises ValueError."""
    try:
        return data[name]
    except KeyError:
        raise ValueError(f"missing field {name!r}") from None


class SparseCombination:
    """A sparse integer combination of canonical keys under one header.

    Subclasses name the JSON fields (`_head_name`, `_key_name`) and supply
    `_check_head`, `_key` (validates and canonicalises one key), `_body` (a
    term's text without its coefficient) and `_require_same_head`.  Terms
    print in the canonical order of `term_key`.
    """

    __slots__ = ("_head", "_terms")

    def __init__(self, head, terms: Mapping | Iterable[tuple] = ()):
        self._check_head(head)
        _set(self, "_head", head)
        # dict()'s own rule: anything with keys() is a mapping.  isinstance
        # against the Mapping ABC walks its subclasses on each new type, a
        # cost that falls on cold requests.
        items = terms.items() if hasattr(terms, "keys") else terms
        _set(self, "_terms", accumulate((self._key(k), _int(c, "coefficients")) for k, c in items))

    @classmethod
    def _trusted(cls, head, terms: dict):
        """A value over terms that are already canonical (valid keys, nonzero
        int coefficients); the dict is kept, not copied."""
        out = object.__new__(cls)
        _set(out, "_head", head)
        _set(out, "_terms", terms)
        return out

    def _like(self, terms: dict):
        return self._trusted(self._head, terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor
        return (type(self), (self._head, self._terms))

    @property
    def terms(self) -> Mapping:
        return MappingProxyType(self._terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._require_same_head(other)
        return self._like(accumulate(other._terms.items(), self._terms))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def __rmul__(self, other: int):
        if type(other) is not int:
            return NotImplemented
        return self._like({k: other * c for k, c in self._terms.items()} if other else {})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._head == other._head and self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def _ordered(self) -> list:
        return sorted(self._terms, key=term_key)

    def __str__(self) -> str:
        bits: list[str] = []
        for key in self._ordered():
            c, body = self._terms[key], self._body(key)
            if not body:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = body
            else:
                piece = f"{abs(c)}*{body}"
            if not bits:
                bits.append(piece if c > 0 else f"-{piece}")
            else:
                bits.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(bits) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def to_json_dict(self) -> dict:
        terms = [{self._key_name: list(k), "coeff": str(self._terms[k])} for k in self._ordered()]
        return {self._head_name: self._head, "terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict):
        # coefficients travel as decimal strings; the constructor rejects any other type
        head = _field(data, cls._head_name)
        terms = _field(data, "terms")
        pairs = [(tuple(_field(t, cls._key_name)), _field(t, "coeff")) for t in terms]
        return cls(head, [(k, int(c) if isinstance(c, str) else c) for k, c in pairs])

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_dict(json.loads(text))
