"""Approximate cubes: the symbolic balls of a sponge.

At scale r each coordinate l refines to its own depth k_l(r), the unique
integer with n_l^-(k_l+1) < r <= n_l^-k_l.  The approximate cube of a
symbolic word at scale r pins coordinate l of the first k_l(r) word entries;
geometrically it is a box whose side in coordinate l lies in [r, n_l * r).
Everything here is computed in exact rational arithmetic: scales are
fractions and depth thresholds are decided by integer comparisons, never by
floating point logarithms, so boundary scales such as r = n_l^-k land on the
correct side.  Every box is a lattice cell, [v, v + 1] / n_l^m in coordinate
l for an integer v.  Every cover is enumerated by ``_cover_blocks``, in blocks
of numerator columns with one denominator per coordinate, which the CSV and
SVG exporters format without Fractions.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    DigitOutOfRange,
    EnumerationTooLarge,
    InternalError,
    ScaleOutOfRange,
    WordTooShort,
)
from .model import DigitTuple, Prefix, Sponge

ScaleLike = Union[Fraction, int, float, str]

DEFAULT_CAP = 10**7
_BLOCK_BOXES = 4096  # boxes per block of a pre-fractal written as it is enumerated
_MAX_DECIMAL_EXPONENT = 1000
# 10**digits once per int-to-str digit limit: at 4300 it costs over ten parses
_power_of_ten = functools.cache(functools.partial(pow, 10))


def admit(what: str, factors: Iterable[int]) -> None:
    """Refuse an enumeration of prod(factors) items above DEFAULT_CAP.

    Every enumeration whose size is known before it starts calls this first.
    The product stops at the first factor that takes it past the cap, so a
    run of factors >= 2, however long, costs at most DEFAULT_CAP.bit_length()
    multiplications and no count beyond the cap is formed.
    """
    total = 1
    for factor in factors:
        total *= factor
        if total > DEFAULT_CAP:
            raise EnumerationTooLarge(f"{what}: over the cap of {DEFAULT_CAP}")


def as_scale(r: ScaleLike) -> Fraction:
    """Coerce a scale, or any rational given as text, to an exact Fraction.

    Strings accept 'p/q' or decimal notation and convert exactly; a decimal
    exponent outside +-1000 is refused (ValueError) before Fraction forms its
    power of ten, which for a long exponent alone takes minutes.  So is a
    value whose numerator or denominator has more digits than ``str()``
    converts (``sys.get_int_max_str_digits()``), since no message or output
    could print it.  Floats are taken at their exact binary value, so prefer
    fractions or strings when a boundary scale like 1/27 is intended.
    """
    if isinstance(r, Fraction):
        return r
    if isinstance(r, (int, float)):
        return Fraction(r)
    if not isinstance(r, str):
        raise TypeError(f"cannot interpret {r!r} as a scale")
    _, e, exponent = r.lower().partition("e")
    try:
        if e and abs(int(exponent)) > _MAX_DECIMAL_EXPONENT:
            raise ValueError
        value = Fraction(r)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"{r!r} is not p/q or a decimal with exponent in +-{_MAX_DECIMAL_EXPONENT}"
        ) from None
    digits = sys.get_int_max_str_digits()
    if digits and max(abs(value.numerator), value.denominator) >= _power_of_ten(digits):
        raise ValueError(f"{r!r} has a numerator or denominator over {digits} digits")
    return value


@dataclass(frozen=True)
class ScaleExponents:
    """Per-coordinate refinement depths k_1 >= ... >= k_d for one scale."""

    k: tuple[int, ...]
    scale: Fraction


@dataclass(frozen=True)
class ApproximateCube:
    """A scale-r cube: coordinate l is pinned for the first k_l(r) positions.

    ``constraints[l-1]`` is the tuple of pinned coordinate-l digits, length
    k_l(r).  Two cubes with equal exponents and constraints describe the same
    symbolic set regardless of the exact scale within the depth bracket.
    """

    scale: Fraction
    exponents: ScaleExponents
    constraints: tuple[tuple[int, ...], ...]


def scale_exponents(s: Sponge, r: ScaleLike) -> ScaleExponents:
    """Depths k_l(r), for 0 < r <= 1, decided in integers.

    For r = p/q, k_l is the largest k with p * n_l^k <= q.  A float
    logarithm only seeds k; integer comparisons then move it to the exact
    answer, so a boundary scale r = n_l^-k lands on the correct side and a
    deep scale costs one big-integer power rather than k multiplications.
    """
    scale = as_scale(r)
    if not 0 < scale <= 1:
        raise ScaleOutOfRange(f"scale must lie in (0, 1], got {scale}")
    p, q = scale.numerator, scale.denominator
    log_ratio = math.log(q) - math.log(p)
    ks: list[int] = []
    for n in s.bases:
        k = max(0, int(log_ratio / math.log(n)))
        bound = p * n**k
        while bound > q:
            k -= 1
            bound //= n
        while bound * n <= q:
            k += 1
            bound *= n
        ks.append(k)
    for a, b in zip(ks, ks[1:]):
        if a < b:
            raise InternalError(f"depths {ks} rise although the bases do not fall")
    return ScaleExponents(tuple(ks), scale)


def _checked_word(s: Sponge, w: Sequence[Sequence[int]], need: int) -> tuple[DigitTuple, ...]:
    word = tuple(tuple(entry) for entry in w)
    if len(word) < need:
        raise WordTooShort(f"word of length {len(word)} does not reach depth {need}")
    for idx, entry in enumerate(word):
        if entry not in s.digit_set:
            raise DigitOutOfRange(f"word entry {idx} = {entry} is not a digit of the sponge")
    return word


def approximate_cube(s: Sponge, w: Sequence[Sequence[int]], r: ScaleLike) -> ApproximateCube:
    """The scale-r cube around the symbolic word w (w must reach depth k_1(r))."""
    ks = scale_exponents(s, r)
    word = _checked_word(s, w, ks.k[0])
    constraints = tuple(
        tuple(word[t][l] for t in range(ks.k[l])) for l in range(s.d)
    )
    return ApproximateCube(ks.scale, ks, constraints)


def _column_width(ks: Sequence[int], t: int) -> int:
    """Number of coordinates pinned at position t (1-based) for depths ks."""
    return sum(1 for k in ks if k >= t)


def count_cubes(s: Sponge, r: ScaleLike) -> int:
    """Number of distinct scale-r cubes, as an exact integer.

    Position t of a word is pinned in exactly its first m_t coordinates,
    where m_t counts the depths still >= t; the pinned block must be a valid
    level-m_t projection and the positions choose independently, giving
    prod_l |D_l|^(k_l - k_(l+1)) with k_(d+1) = 0.
    """
    ks = scale_exponents(s, r).k
    total = 1
    for l in range(s.d):
        nxt = ks[l + 1] if l + 1 < s.d else 0
        total *= len(s.level_sets[l + 1]) ** (ks[l] - nxt)
    return total


def subcubes(s: Sponge, q: ApproximateCube, r: ScaleLike) -> list[ApproximateCube]:
    """All scale-r cubes whose symbolic set lies inside q, in canonical order.

    Positions are extended outermost first and the candidates at each
    position run lexicographically, so the output order is deterministic.
    The count is admitted (``admit``) before any sub-cube is built.
    """
    ks_r = scale_exponents(s, r)
    if ks_r.scale >= q.scale:
        raise ScaleOutOfRange(
            f"refinement scale {ks_r.scale} must be smaller than the cube scale {q.scale}"
        )
    k_old = q.exponents.k
    k_new = ks_r.k
    candidates: list[list[Prefix]] = []
    for t in range(1, k_new[0] + 1):
        m_new = _column_width(k_new, t)
        m_old = _column_width(k_old, t)
        fixed = tuple(q.constraints[l][t - 1] for l in range(m_old))
        options = [p for p in s.level_sets[m_new] if p[:m_old] == fixed]
        candidates.append(options)

    admit(f"sub-cubes at scale {ks_r.scale}", map(len, candidates))
    out: list[ApproximateCube] = []
    for combo in itertools.product(*candidates):
        constraints = tuple(
            tuple(combo[t][l] for t in range(k_new[l])) for l in range(s.d)
        )
        out.append(ApproximateCube(ks_r.scale, ks_r, constraints))
    return out


def box_dim_slope(s: Sponge, depth: int) -> float:
    """Box-counting slope log(count) / log(1/r) at r = n_1^-depth."""
    if depth < 1:
        raise ScaleOutOfRange(f"depth must be >= 1, got {depth}")
    count = count_cubes(s, Fraction(1, s.bases[0] ** depth))
    return math.log(count) / (depth * math.log(s.bases[0]))


def lattice_column(base: int, positions: Iterable[Sequence[int]]) -> list[int]:
    """Numerators over base**len(positions) of every digit string, in order.

    ``positions[t]`` lists the digits allowed at position t; the strings run
    lexicographically with the first position slowest, and each numerator is
    the string read as a base-``base`` integer.
    """
    values = [0]
    for digits in positions:
        values = [v * base + j for v in values for j in digits]
    return values


def _cover_blocks(
    bases: Sequence[int], choices: Sequence[Sequence[DigitTuple]]
) -> Iterator[tuple[list[int], ...]]:
    """Columns of a cover's boxes, one block at a time.

    The cover's words are the products of ``choices[t]``, the digit tuples
    allowed at position t, in word order; coordinate l of a word's box is
    its coordinate-l digits read as a base-n_l numerator.  A block holds the
    words with one prefix, and its suffix is the longest run of last
    positions with at most _BLOCK_BOXES words, so coordinate l reads
    head * n_l^j + v over the suffix column v of those j positions.
    """
    cut, size = len(choices), 1
    while cut and size * len(choices[cut - 1]) <= _BLOCK_BOXES:
        cut -= 1
        size *= len(choices[cut])
    digits = [[[digit[l] for digit in c] for c in choices] for l in range(len(bases))]
    # head * n_l^j: the prefix's numerator followed by j zero digits
    heads = [lattice_column(n, ds[:cut] + [[0]] * (len(ds) - cut)) for n, ds in zip(bases, digits)]
    tails = [lattice_column(n, ds[cut:]) for n, ds in zip(bases, digits)]
    return (tuple([h + v for v in tail] for h, tail in zip(hs, tails)) for hs in zip(*heads))


def _prefractal_blocks(s: Sponge, level: int) -> tuple[tuple[int, ...], Iterator[tuple]]:
    """Denominators of the level-m cover, and its columns one block at a time.

    The cover has one box per length-m word, the image of the unit cube under
    the word's m-fold map composition: boxes run in word order and have side
    n_l^-m in coordinate l.  The level is admitted at the call.
    """
    if level < 0:
        raise ScaleOutOfRange(f"pre-fractal level must be >= 0, got {level}")
    admit(f"{len(s.digits)}^{level} boxes", itertools.repeat(len(s.digits), level))
    return tuple(n**level for n in s.bases), _cover_blocks(s.bases, [s.digits] * level)


def _reduced(v: int, den: int) -> str:
    """v/den in lowest terms, formatted as Fraction formats it."""
    g = math.gcd(v, den)
    return f"{v // g}/{den // g}"


def _interleave(tables: Sequence[dict[int, str]], columns: Sequence[Sequence[int]]) -> str:
    """Box by box, tables[l][v] for the numerator v of each coordinate l.

    Every distinct numerator is formatted once, into its table, and the
    cells are written into one flat list, so no per-box string is built.
    """
    d = len(tables)
    parts = [""] * (d * len(columns[0]))
    for l, (table, column) in enumerate(zip(tables, columns)):
        parts[l::d] = map(table.__getitem__, column)
    return "".join(parts)


def _csv_chunks(dens: Sequence[int], blocks: Iterable[Sequence[Sequence[int]]]) -> Iterator[str]:
    """CSV text of a cover: the header, then one chunk per block of columns."""
    yield ",".join(f"lo_{l+1},hi_{l+1}" for l in range(len(dens))) + "\n"
    seps = [","] * (len(dens) - 1) + ["\n"]
    tables: list[dict[int, str]] = [{} for _ in dens]
    for block in blocks:
        for table, column, den, sep in zip(tables, block, dens, seps):
            if len(table) > _BLOCK_BOXES:  # a memo across blocks, kept bounded
                table.clear()
            table.update({v: f"{_reduced(v, den)},{_reduced(v + 1, den)}{sep}"
                          for v in set(column) if v not in table})
        yield _interleave(tables, block)


def _svg_chunks(dens: Sequence[int], blocks: Iterable[Sequence[Sequence[int]]]) -> Iterator[str]:
    """SVG text of a planar cover given block by block, on the unit square.

    Only defined for d = 2.  The vertical axis is flipped so the origin sits
    at the bottom-left, and no external styling is referenced.  Corners are
    integer quotients, which round correctly as Fraction.__float__ does.
    """
    dx, dy = dens
    tail = (f' width="{1 / dx:.12g}" height="{1 / dy:.12g}" '
            'fill="#1f3a5f" fill-opacity="0.85"/>\n')
    yield ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1" width="640" height="640">\n'
           '<rect x="0" y="0" width="1" height="1" fill="#ffffff"/>\n')
    for cx, cy in blocks:
        xs = {v: f'<rect x="{v / dx:.12g}" ' for v in set(cx)}
        ys = {v: f'y="{1.0 - (v + 1) / dy:.12g}"{tail}' for v in set(cy)}
        yield _interleave([xs, ys], (cx, cy))
    yield "</svg>\n"
