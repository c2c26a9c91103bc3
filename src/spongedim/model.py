"""Grid self-affine sponge model.

A sponge is described by integer bases n_1 <= ... <= n_d (each >= 2) and a
set D of digit tuples, one entry per coordinate, with the l-th entry drawn
from {0, ..., n_l - 1}.  Each digit tuple i names the affine contraction

    S_i(x) = ((x_1 + i_1) / n_1, ..., (x_d + i_d) / n_d)

and the attractor of the family {S_i : i in D} is the sponge itself.  This
module validates such descriptions and answers the combinatorial questions
everything else is built on: coordinate projections of the digit set, fibre
counts above a projected prefix, uniformity of those fibres, and the strong
column separation condition used by the ball-geometry diagnostics.

Conventions used across the package:

* digit tuples and prefixes are plain tuples of ints, ordered and compared
  lexicographically;
* a "prefix" of length l is the projection of some digit tuple to its first
  l coordinates;
* levels are 1-based (level l talks about coordinate l), matching the way
  the quantities are usually written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import (
    DecreasingBases,
    DegenerateCoordinate,
    DigitOutOfRange,
    EmptyOrSingletonDigits,
    PrefixNotInSponge,
    SpongeFileError,
)

DigitTuple = tuple[int, ...]
Prefix = tuple[int, ...]
_T = TypeVar("_T")


@dataclass(frozen=True)
class Sponge:
    """A validated sponge description.

    Instances are immutable and hashable; construct them through
    :func:`validate_sponge`, which enforces every structural invariant.
    Derived lookup tables are computed lazily and cached per instance.
    """

    bases: tuple[int, ...]
    digits: tuple[DigitTuple, ...]

    @property
    def d(self) -> int:
        return len(self.bases)

    @cached_property
    def strict_bases(self) -> bool:
        """True when every base strictly exceeds the previous one."""
        return all(a < b for a, b in zip(self.bases, self.bases[1:]))

    @cached_property
    def digit_set(self) -> frozenset[DigitTuple]:
        return frozenset(self.digits)

    @cached_property
    def level_sets(self) -> tuple[tuple[Prefix, ...], ...]:
        """level_sets[l] is the sorted projection of D to the first l coordinates."""
        sets: list[tuple[Prefix, ...]] = [((),)]
        for l in range(1, self.d + 1):
            sets.append(tuple(sorted({t[:l] for t in self.digits})))
        return tuple(sets)

    @cached_property
    def fibres(self) -> tuple[dict[Prefix, tuple[int, ...]], ...]:
        """fibres[l][p] lists the coordinate-(l+1) digits available above p.

        p runs over the level-l projection, 0 <= l <= d-1; the lists are the
        children counted by the fibre count function.
        """
        tables: list[dict[Prefix, tuple[int, ...]]] = []
        for l in range(self.d):
            table: dict[Prefix, set[int]] = {}
            for t in self.digits:
                table.setdefault(t[:l], set()).add(t[l])
            tables.append({p: tuple(sorted(v)) for p, v in table.items()})
        return tuple(tables)

    def fibre(self, p: Prefix) -> tuple[int, ...]:
        l = len(p)
        if not 0 <= l < self.d:
            raise PrefixNotInSponge(
                f"prefix length {l} is outside [0, {self.d - 1}]"
            )
        try:
            return self.fibres[l][tuple(p)]
        except KeyError:
            raise PrefixNotInSponge(f"{tuple(p)} is not a level-{l} prefix") from None

    def fibre_count(self, p: Prefix) -> int:
        return len(self.fibre(p))

    def fibre_count_range(self, l: int) -> tuple[int, int]:
        """(min, max) fibre count over the level-(l-1) prefixes, 2 <= l <= d."""
        if not 2 <= l <= self.d:
            raise PrefixNotInSponge(f"level {l} is outside [2, {self.d}]")
        counts = [len(v) for v in self.fibres[l - 1].values()]
        return min(counts), max(counts)


def validate_sponge(bases: Sequence[int], digits: Iterable[Sequence[int]]) -> Sponge:
    """Check a raw description and return the immutable model.

    Digit input is treated with set semantics: duplicates collapse and the
    stored order is lexicographic.  Raises DecreasingBases, DigitOutOfRange,
    EmptyOrSingletonDigits or DegenerateCoordinate as appropriate.  Equal
    neighbouring bases are accepted; the result's ``strict_bases`` says
    whether every base strictly exceeds the previous one.
    """
    base_tuple = tuple(int(b) for b in bases)
    d = len(base_tuple)
    for a, b in zip(base_tuple, base_tuple[1:]):
        if b < a:
            raise DecreasingBases(f"bases {base_tuple} are not non-decreasing")

    seen: list[DigitTuple] = []
    for idx, raw in enumerate(digits):
        t = tuple(int(e) for e in raw)
        if len(t) != d:
            raise DigitOutOfRange(
                f"digit {idx} has {len(t)} entries, expected {d}: {t}"
            )
        for l, (e, n) in enumerate(zip(t, base_tuple)):
            if not 0 <= e < n:
                raise DigitOutOfRange(
                    f"digit {idx} entry {e} at coordinate {l + 1} "
                    f"is outside [0, {n})"
                )
        seen.append(t)

    distinct = sorted(set(seen))
    if len(distinct) < 2:
        raise EmptyOrSingletonDigits(
            f"need at least two distinct digit tuples, got {len(distinct)}"
        )

    for l in range(d):
        if len({t[l] for t in distinct}) == 1:
            reduced_bases = base_tuple[:l] + base_tuple[l + 1 :]
            reduced_digits = sorted({t[:l] + t[l + 1 :] for t in distinct})
            raise DegenerateCoordinate(l + 1, reduced_bases, reduced_digits)

    return Sponge(base_tuple, tuple(distinct))


def has_uniform_fibres(s: Sponge) -> bool:
    """True when the fibre count is constant on every level 1 <= l <= d-1."""
    for l in range(1, s.d):
        counts = {len(v) for v in s.fibres[l].values()}
        if len(counts) > 1:
            return False
    return True


def satisfies_vssc(s: Sponge) -> bool:
    """Strong column separation: siblings never use adjacent digit values.

    For every level l, any two digit tuples that agree on the first l-1
    coordinates and differ at coordinate l must differ there by more than 1.
    """
    return all(
        b - a > 1
        for level in s.fibres
        for values in level.values()
        for a, b in zip(values, values[1:])
    )


def _json_document(text: str):
    """json.loads(text); a syntax error, an integer past Python's int-string
    digit limit or nesting too deep to decode is a SpongeFileError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SpongeFileError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except (ValueError, RecursionError) as e:
        raise SpongeFileError(f"invalid JSON: {e}") from None


def _read_file(path: str, parse: Callable[[str], _T]) -> _T:
    """parse(the file's text); the path leads any SpongeFileError, or non-UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (SpongeFileError, UnicodeDecodeError) as e:
        raise SpongeFileError(f"{path}: {e}") from None


def sponge_from_json(text: str) -> Sponge:
    """Parse a JSON sponge description {"bases": [...], "digits": [[...], ...]}.

    Syntax errors keep their line/column diagnostics; structural errors name
    the offending entry.  Duplicate digit rows are rejected here (the file is
    presumed human-written), while the programmatic constructor treats digit
    input as a set.
    """
    doc = _json_document(text)
    if not isinstance(doc, dict):
        raise SpongeFileError("top level must be an object with 'bases' and 'digits'")
    for key in ("bases", "digits"):
        if key not in doc:
            raise SpongeFileError(f"missing required key '{key}'")
    bases = doc["bases"]
    digits = doc["digits"]
    if not isinstance(bases, list) or not all(isinstance(b, int) for b in bases):
        raise SpongeFileError("'bases' must be a list of integers")
    if not isinstance(digits, list):
        raise SpongeFileError("'digits' must be a list of digit rows")
    rows: list[tuple[int, ...]] = []
    index_of: dict[tuple[int, ...], int] = {}
    for idx, row in enumerate(digits):
        if not isinstance(row, list) or not all(isinstance(e, int) for e in row):
            raise SpongeFileError(f"digits[{idx}] must be a list of integers")
        t = tuple(row)
        if t in index_of:
            raise SpongeFileError(f"digits[{idx}] duplicates digits[{index_of[t]}]")
        index_of[t] = idx
        rows.append(t)
    return validate_sponge(bases, rows)


def load_sponge(path: str) -> Sponge:
    return _read_file(path, sponge_from_json)
