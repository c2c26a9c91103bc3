"""Bernoulli (self-affine) measures on a sponge and their cube/ball masses.

A Bernoulli measure assigns an exact rational weight p_i > 0 to every digit
tuple, summing to one; cylinder sets multiply weights.  The mass of an
approximate cube factors over coordinates into conditional one-step
probabilities, and that product is what the scanning diagnostics compare
against power-law bounds.  Exact values are kept as fractions while a
parallel log-space value is always available, so deep scans never overflow
and shallow computations stay exact.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from operator import mul
from typing import Mapping, Sequence

from .errors import (
    DigitOutOfRange,
    EnumerationTooLarge,
    PrefixNotInSponge,
    ScaleOutOfRange,
    SpongeFileError,
    ZeroMeasure,
)
from .cubes import DEFAULT_CAP, ScaleLike, admit, as_scale, scale_exponents, _checked_word
from .model import DigitTuple, Prefix, Sponge, _json_document, _read_file

# Above this many factors cube masses are reported in log space only.
EXACT_FACTOR_BUDGET = 512


@dataclass(frozen=True)
class RationalLog:
    """A positive quantity carried exactly when cheap, in log space always.

    ``exact`` is None when the exact product was skipped for size reasons;
    ``log_value`` is the natural log (``-inf`` for an exact zero).
    """

    exact: Fraction | None
    log_value: float

    def __float__(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        return math.exp(self.log_value)


@dataclass(frozen=True)
class BernoulliMeasure:
    """Exact product measure on the symbolic space of a sponge."""

    sponge: Sponge
    weights: Mapping[DigitTuple, Fraction]
    _prefix_mass: tuple[dict[Prefix, Fraction], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        s = self.sponge
        w = {tuple(k): Fraction(v) for k, v in self.weights.items()}
        if set(w) != set(s.digits):
            missing = set(s.digits) - set(w)
            extra = set(w) - set(s.digits)
            raise DigitOutOfRange(
                f"weights must cover the digit set exactly "
                f"(missing {sorted(missing)}, extraneous {sorted(extra)})"
            )
        for k, v in w.items():
            if v <= 0:
                raise ZeroMeasure(f"weight of {k} must be positive, got {v}")
        total = sum(w.values())
        if total != 1:
            raise ScaleOutOfRange(f"weights must sum to exactly 1, got {total}")
        # mass of every projected prefix, per level 0..d
        tables: list[dict[Prefix, Fraction]] = []
        for l in range(s.d + 1):
            table: dict[Prefix, Fraction] = {}
            for t, v in w.items():
                p = t[:l]
                table[p] = table.get(p, Fraction(0)) + v
            tables.append(table)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_prefix_mass", tuple(tables))

    def prefix_mass(self, p: Prefix) -> Fraction:
        """Total weight of digit tuples starting with p (0 when none do)."""
        l = len(p)
        if not 0 <= l <= self.sponge.d:
            raise DigitOutOfRange(f"prefix length {l} is outside [0, {self.sponge.d}]")
        return self._prefix_mass[l].get(tuple(p), Fraction(0))

    @cached_property
    def log_factors(self) -> tuple[dict[DigitTuple, float], ...]:
        """log_factors[l][t] is the log of P(t[:l+1] | t[:l]), for 0 <= l < d.

        Keyed by the whole digit tuple, so a word entry looks its factor up
        without slicing.  Built on first use: measures that never ask for a
        cube mass in log space pay nothing.
        """
        tables = []
        for l in range(self.sponge.d):
            logs: dict[Prefix, float] = {}
            for p in self.sponge.level_sets[l + 1]:
                c = self._prefix_mass[l + 1][p] / self._prefix_mass[l][p[:l]]
                logs[p] = _rational_log(c).log_value
            tables.append({t: logs[t[: l + 1]] for t in self.sponge.digits})
        return tuple(tables)


def coordinate_uniform(s: Sponge) -> BernoulliMeasure:
    """The measure that splits mass evenly at every coordinate refinement.

    Digit i gets weight 1/(N * prod_l N(i_1..i_{l-1})): uniform over the
    first-coordinate projection, then uniform over each successive fibre.
    """
    n_first = len(s.level_sets[1])
    weights: dict[DigitTuple, Fraction] = {}
    for t in s.digits:
        w = Fraction(1, n_first)
        for l in range(2, s.d + 1):
            w /= s.fibre_count(t[: l - 1])
        weights[t] = w
    return BernoulliMeasure(s, weights)


def conditional_prob(m: BernoulliMeasure, p: Sequence[int], nxt: int) -> Fraction:
    """P(coordinate len(p)+1 digit = nxt | prefix p), an exact fraction.

    Zero when the extended prefix is not a projection of any digit tuple.
    """
    prefix = tuple(p)
    denom = m.prefix_mass(prefix)
    if denom == 0:
        raise PrefixNotInSponge(f"prefix {prefix} carries no mass")
    return m.prefix_mass(prefix + (int(nxt),)) / denom


def cube_measure(
    m: BernoulliMeasure,
    w: Sequence[Sequence[int]],
    r: ScaleLike,
    exact_budget: int = EXACT_FACTOR_BUDGET,
) -> RationalLog:
    """Mass of the scale-r approximate cube around the word w.

    The cube pins coordinate l for the first k_l(r) positions, and its mass
    is the product over those positions of the one-step conditional
    probabilities p(i_{t,l} | i_{t,1}..i_{t,l-1}).  ``log_value`` sums their
    logs from the measure's ``log_factors`` table, coordinate by coordinate
    and position by position; the exact product is formed only while the
    factor count stays within ``exact_budget`` (0 leaves it out whenever a
    factor is pinned).
    """
    s = m.sponge
    ks = scale_exponents(s, r)
    word = _checked_word(s, w, ks.k[0])
    log_value = 0.0
    for table, k in zip(m.log_factors, ks.k):
        for x in map(table.__getitem__, word[:k]):
            log_value += x
    exact = None
    if sum(ks.k) <= exact_budget:
        exact = Fraction(1)
        for l, k in enumerate(ks.k):
            for t in word[:k]:
                exact *= conditional_prob(m, t[:l], t[l])
    return RationalLog(exact, log_value)


def ball_measure_bounds(
    m: BernoulliMeasure,
    center: Sequence[ScaleLike],
    radius: ScaleLike,
    depth: int,
) -> tuple[RationalLog, RationalLog]:
    """Exact lower/upper brackets for the mass of a Euclidean ball.

    The lower bracket sums depth-``depth`` cylinders whose covering boxes sit
    entirely inside the closed ball; the upper bracket sums those whose boxes
    meet the open ball.  Sub-trees fully inside or fully outside are resolved
    without descending, so the enumeration usually stays far below |D|^depth.
    Both brackets are monotone in ``depth``: deeper runs can only tighten.
    A radius of zero degenerates to (0, mass of cylinders through the point).

    The walk is in integers.  With centre coordinate c_l = a_l/b_l, a box's
    corners at a level are numerators over b_l * n_l^level, and squared
    distances are compared to the radius after multiplying both sides by
    the squares of those denominators (constants built per level reached).
    Masses are numerators over Q^level, Q the lcm of the weight
    denominators; the two brackets become fractions once, at the end.
    """
    s = m.sponge
    if depth < 0:
        raise ScaleOutOfRange(f"depth must be >= 0, got {depth}")
    c = tuple(map(as_scale, center))
    if len(c) != s.d:
        raise DigitOutOfRange(f"center has {len(c)} coordinates, expected {s.d}")
    rad = as_scale(radius)
    if rad < 0:
        raise ScaleOutOfRange(f"radius must be >= 0, got {rad}")
    cb = [x.denominator for x in c]
    q_mass = math.lcm(*(v.denominator for v in m.weights.values()))
    # per digit: the child's corner offsets b_l * t_l and its mass numerator
    children = []
    for t in s.digits:
        w = m.weights[t]
        children.append((tuple(map(mul, cb, t)), w.numerator * (q_mass // w.denominator)))
    # per level reached: centre numerators, distance weights, radius term,
    # and the mass numerators that level adds to each bracket
    levels: list[tuple[list[int], list[int], int]] = []
    lower: list[int] = []
    upper: list[int] = []

    def level_constants(level: int) -> tuple[list[int], list[int], int]:
        dens = [b * n**level for b, n in zip(cb, s.bases)]
        total = math.prod(dn * dn for dn in dens)
        weights = [total // (dn * dn) * rad.denominator**2 for dn in dens]
        xs = [x.numerator * n**level for x, n in zip(c, s.bases)]
        return xs, weights, total * rad.numerator**2

    visited = 0
    cap = DEFAULT_CAP  # a local, read once per node below
    # (level, per-coordinate lower corners over b_l * n_l^level, mass over Q^level)
    stack = [(0, (0,) * s.d, 1)]
    while stack:
        level, corners, mass = stack.pop()
        visited += 1
        if visited > cap:
            raise EnumerationTooLarge(f"ball bracket enumeration exceeded cap {cap}")
        if level == len(levels):
            levels.append(level_constants(level))
            lower.append(0)
            upper.append(0)
        xs, weights, r2 = levels[level]
        min_sq = 0
        max_sq = 0
        for x, lo, b, wt in zip(xs, corners, cb, weights):
            hi = lo + b
            if x < lo:
                near, far = lo - x, hi - x
            elif x > hi:
                near, far = x - hi, x - lo
            else:
                near, far = 0, max(x - lo, hi - x)
            min_sq += near * near * wt
            max_sq += far * far * wt
        meets_ball = min_sq < r2 if rad > 0 else min_sq == 0
        if not meets_ball:
            continue
        if rad > 0 and max_sq <= r2:
            lower[level] += mass
            upper[level] += mass
            continue
        if level == depth:
            upper[level] += mass
            continue
        for offsets, weight in children:
            child = tuple(lo * n + o for lo, n, o in zip(corners, s.bases, offsets))
            stack.append((level + 1, child, mass * weight))

    # over Q^deepest level reached, not Q^depth: the walk may stop early
    den = q_mass ** (len(levels) - 1)

    def bracket(sums: list[int]) -> RationalLog:
        num = 0
        for level_sum in sums:
            num = num * q_mass + level_sum
        return _rational_log(Fraction(num, den))

    return bracket(lower), bracket(upper)


def _rational_log(x: Fraction) -> RationalLog:
    """x with its natural log, also when float(x) underflows to zero."""
    if x == 0:
        return RationalLog(x, -math.inf)
    if float(x) == 0:
        return RationalLog(x, math.log(x.numerator) - math.log(x.denominator))
    return RationalLog(x, math.log(x))


def weights_to_doc(m: BernoulliMeasure) -> dict[str, str]:
    """The weights as a map 'i1,i2,...' -> 'p/q' in digit order."""
    return {
        ",".join(str(e) for e in t): f"{w.numerator}/{w.denominator}"
        for t, w in sorted(m.weights.items())
    }


def weights_to_json(m: BernoulliMeasure) -> str:
    """Serialize weights as a JSON map 'i1,i2,...' -> 'p/q' in digit order."""
    return json.dumps(weights_to_doc(m), indent=2)


def measure_from_json(s: Sponge, text: str) -> BernoulliMeasure:
    """Parse a probability vector file for the given sponge.

    The document must be a JSON object mapping digit-tuple strings
    'i1,i2,...,id' to rational strings 'p/q' (or decimal strings, which are
    converted exactly); the weights must sum to exactly one.
    """
    doc = _json_document(text)
    if not isinstance(doc, dict):
        raise SpongeFileError("weight file must be a JSON object")
    if "weights" in doc and isinstance(doc["weights"], dict):
        doc = doc["weights"]
    weights: dict[DigitTuple, Fraction] = {}
    for key, value in doc.items():
        try:
            t = tuple(int(part) for part in key.split(","))
        except ValueError:
            raise SpongeFileError(f"bad digit key {key!r}") from None
        try:
            weights[t] = as_scale(str(value))
        except ValueError as e:
            raise SpongeFileError(f"bad weight for key {key!r}: {e}") from None
    return BernoulliMeasure(s, weights)


def load_measure(s: Sponge, path: str) -> BernoulliMeasure:
    return _read_file(path, partial(measure_from_json, s))


def positive_weight_grid(s: Sponge, step: ScaleLike):
    """Every strictly positive weight vector on the step-grid simplex.

    ``step`` must be 1/q for an integer q >= |D|.  Yields one measure per
    assignment of multiples a/q (a >= 1) to the sorted digits summing to 1,
    in lexicographic order, so downstream sweeps are deterministic.  The
    C(q-1, |D|-1) vectors are counted and admitted (``cubes.admit``) before
    the first measure is drawn, and each measure is built as it is drawn.
    """
    h = as_scale(step)
    if h.numerator != 1 or h.denominator < 2:
        raise ScaleOutOfRange(f"grid step must be 1/q with q >= 2, got {h}")
    q = h.denominator
    digits = sorted(s.digit_set)
    m = len(digits)
    if q < m:
        raise ScaleOutOfRange(
            f"grid step 1/{q} leaves no positive vector for {m} digits"
        )
    admit(f"grid step 1/{q} over {m} digits", [math.comb(q - 1, m - 1)])
    # a vector is a choice of m - 1 cut points in 1..q-1; cuts in
    # lexicographic order give the parts in lexicographic order
    for cuts in itertools.combinations(range(1, q), m - 1):
        bounds = (0, *cuts, q)
        yield BernoulliMeasure(
            s, {t: Fraction(b - a, q) for t, a, b in zip(digits, bounds, bounds[1:])}
        )
