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
from operator import mul, sub
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

# The least positive normal float.
_MIN_NORMAL = 2.0**-1022

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
        w = {tuple(k): as_scale(v) for k, v in self.weights.items()}
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

    @cached_property
    def mass_numerators(self) -> tuple[int, tuple[int, ...]]:
        """(Q, numerators): Q the lcm of the weight denominators and each
        digit's weight as a numerator over Q, in ``sponge.digits`` order."""
        q = math.lcm(*(v.denominator for v in self.weights.values()))
        return q, tuple(
            self.weights[t].numerator * (q // self.weights[t].denominator)
            for t in self.sponge.digits
        )


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
    m: BernoulliMeasure, w: Sequence[Sequence[int]], r: ScaleLike
) -> RationalLog:
    """Mass of the scale-r approximate cube around the word w.

    The cube pins coordinate l for the first k_l(r) positions, and its mass
    is the product over those positions of the one-step conditional
    probabilities p(i_{t,l} | i_{t,1}..i_{t,l-1}).  ``log_value`` sums their
    logs (``_log_mass``); the exact product is formed only while the factor
    count stays within ``EXACT_FACTOR_BUDGET``.
    """
    ks = scale_exponents(m.sponge, r).k
    word = _checked_word(m.sponge, w, ks[0])
    exact = None
    if sum(ks) <= EXACT_FACTOR_BUDGET:
        exact = Fraction(1)
        for l, k in enumerate(ks):
            for t in word[:k]:
                exact *= conditional_prob(m, t[:l], t[l])
    return RationalLog(exact, _log_mass(m, word, ks))


def _log_mass(m: BernoulliMeasure, word: Sequence[DigitTuple], k: Sequence[int]) -> float:
    """Log mass of the cube pinning coordinate l of the checked word[:k[l]]: the one
    sum of ``log_factors``, coordinate by coordinate, then position by position."""
    log_value = 0.0
    for table, kl in zip(m.log_factors, k):
        for x in map(table.__getitem__, word[:kl]):
            log_value += x
    return log_value


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

    The walk is the one-radius case of ``_concentric_brackets``.  With centre
    coordinate c_l = a_l/b_l, a node carries its integer offsets from the
    centre over b_l * n_l^level, and each box is classified in floats,
    distance over radius, under a proven relative error bound; only a
    comparison inside that bound (a closed-ball tie among them) falls back
    to exact integer arithmetic.  Masses are numerators over Q^level, Q the
    lcm of the weight denominators; the two brackets become fractions once,
    at the end.
    """
    return _concentric_brackets(m, center, (radius,), depth)[0]


def _concentric_brackets(
    m: BernoulliMeasure,
    center: Sequence[ScaleLike],
    radii: Sequence[ScaleLike],
    depth: int,
) -> list[tuple[RationalLog, RationalLog]]:
    """``ball_measure_bounds`` for several radii about one centre, in one walk.

    A node is visited while some radius straddles its box, and its children
    are classified only for those radii: each radius meets exactly the nodes
    and decisions of its own walk, and the node guard counts their union.

    Offsets: at level L, coordinate l of the centre is x_l = a_l n_l^L over
    s_l = b_l n_l^L, a box's lower corner is lo_l over s_l and its side is
    b_l.  A node keeps d_l = x_l - lo_l, and its child through digit t has
    n_l d_l - b_l t_l.  The box's nearest and farthest points lie ``near_l``
    and ``far_l`` (integers over s_l) from the centre in coordinate l.

    Float filter (Shewchuk's adaptive predicates).  Each sum S of squared
    distances is compared with R^2 through a float S' within gamma_k S of it
    (k roundings, gamma_k = k u / (1 - k u), u = 2^-53), give or take under
    d 2^-1074 from terms that underflow:
    - while every h_l = 1/s_l is a normal float and R^2 = p^2/q^2 lies in
      [2^-1000, 2^1000], the node's near_l h_l and far_l h_l serve every
      such radius.  h_l is the correctly rounded 1/b_l at level 0 and the
      level before's h_l / n_l after (L + 1 roundings); the int-to-float
      conversion and the product add two, the square doubles them and adds
      one, and the d - 1 additions of non-negative terms add one each:
      k = 2L + d + 6.  The cuts R^2 (1 -+ margin) carry two roundings.  A
      node whose integers convert to no float takes the path below;
    - otherwise the radius forms the distance over R from exact integers,
      (dist << up) / (s_l << down), one correctly rounded quotient, times a
      rounded ratio in (1/2, 2): k = d + 6, against the cuts 1 -+ margin.
      A quotient past the float range (``OverflowError``) is a distance
      over R past 2^1023: the box lies outside the ball (near) or not
      inside it (far).
    The quotients alone would decide every box.  The shared floats save a
    big-integer division per coordinate and radius wherever they apply,
    which covers the ball scan's brackets: without them scan ``jobs_per_s``
    fell 7.7% (``BENCH_25.json``).
    No level lies past min(depth, node guard), so the margin
    (2L + d + 10) 2^-52 for that L bounds the error on both sides: S' at or
    below the low cut proves S < R^2, S' at or above the high cut proves
    S > R^2, and what lies between, every tie S = R^2 among it, is decided
    by the exact integer test of the level.  Radius 0 is exact: the box
    meets the point iff every near_l is 0.
    """
    s = m.sponge
    if depth < 0:
        raise ScaleOutOfRange(f"depth must be >= 0, got {depth}")
    c = tuple(map(as_scale, center))
    if len(c) != s.d:
        raise DigitOutOfRange(f"center has {len(c)} coordinates, expected {s.d}")
    rads = tuple(map(as_scale, radii))
    for rad in rads:
        if rad < 0:
            raise ScaleOutOfRange(f"radius must be >= 0, got {rad}")
    bases = s.bases
    cb = [x.denominator for x in c]
    q_mass, numerators = m.mass_numerators
    # per digit: the child's offset shifts b_l * t_l and its mass numerator
    children = [(tuple(map(mul, cb, t)), w) for t, w in zip(s.digits, numerators)]
    rnums = [rad.numerator for rad in rads]
    rdens = [rad.denominator for rad in rads]
    margin = (2 * min(depth, DEFAULT_CAP) + s.d + 10) * 2.0**-52
    unit_cuts = (1.0 - margin, 1.0 + margin)
    # per radius p/q, with e = bits(q) - bits(p): the cuts R^2 (1 -+ margin)
    # for the shared distances when |e| < 500, so R^2 lies in [2^-1000,
    # 2^1000], else None; and the distance over R as (dist << up) /
    # (s_l << down) * ratio, q / p = ratio * 2^(up - down), ratio in (1/2, 2)
    cuts = []
    quotients = []
    for p, q in zip(rnums, rdens):
        e = q.bit_length() - p.bit_length()
        r2 = p * p / (q * q) if p and -500 < e < 500 else 0.0
        cuts.append((r2 * unit_cuts[0], r2 * unit_cuts[1]) if r2 else None)
        up, down = max(e, 0), max(-e, 0)
        quotients.append((up, down, (q << down) / (p << up) if p else 0.0))

    def normal(hs: list[float]) -> list[float] | None:
        return hs if min(hs) >= _MIN_NORMAL else None

    # per level reached: the scales s_l, the floats h_l (None once one is
    # below the normal range), and the mass numerators that level adds to
    # each radius's lower and upper bracket
    levels = [(cb, normal([1 / b for b in cb]), [0] * (2 * len(rads)))]
    exact_terms: dict[tuple[int, int], tuple[list[int], int]] = {}

    def exact_below(level: int, i: int, offsets: tuple[int, ...], near: bool) -> bool:
        """Whether the box's nearest point lies in the open ball (``near``) or
        its farthest in the closed one: sum (dist_l / s_l)^2 against R^2 in
        integers, both sides times q^2 prod s_l^2, the level's terms built on
        first use."""
        terms = exact_terms.get((level, i))
        if terms is None:
            scales = levels[level][0]
            total = math.prod(y * y for y in scales)
            terms = exact_terms[level, i] = (
                [total // (y * y) * rdens[i] ** 2 for y in scales], total * rnums[i] ** 2)
        weights, r2 = terms
        sq = 0
        for d, b, wt in zip(offsets, cb, weights):
            if near:
                dist = -d if d < 0 else d - b if d > b else 0
            else:
                dist = d if d + d > b else b - d
            sq += dist * dist * wt
        return sq < r2 if near else sq <= r2

    visited = 0
    cap = DEFAULT_CAP  # a local, read once per node below
    # (level, offsets over b_l * n_l^level, mass over Q^level, straddling radii)
    stack = [(0, tuple([x.numerator for x in c]), 1, tuple(range(len(rads))))]
    while stack:
        level, offsets, mass, active = stack.pop()
        visited += 1
        if visited > cap:
            raise EnumerationTooLarge(f"ball bracket enumeration exceeded cap {cap}")
        if level == len(levels):
            scales, hs, _ = levels[-1]
            levels.append((list(map(mul, scales, bases)),
                           hs and normal([h / n for h, n in zip(hs, bases)]),
                           [0] * (2 * len(rads))))
        scales, hs, sums = levels[level]
        shared = False
        if hs:
            # the node's squared nearest and farthest distances, in floats
            near_abs = far_abs = 0.0
            try:
                for d, b, h in zip(offsets, cb, hs):
                    if d < 0:
                        u = -d * h
                        near_abs += u * u
                        v = (b - d) * h
                    elif d > b:
                        u = (d - b) * h
                        near_abs += u * u
                        v = d * h
                    else:
                        v = (d if d + d > b else b - d) * h
                    far_abs += v * v
                shared = True
            except OverflowError:
                pass
        straddling = []
        for i in active:
            cut = cuts[i]
            if cut and shared:
                near_sq, far_sq = near_abs, far_abs
                low, high = cut
            elif rnums[i]:
                low, high = unit_cuts
                near_sq = far_sq = 0.0
                up, down, ratio = quotients[i]
                try:
                    for d, b, y in zip(offsets, cb, scales):
                        dist = -d if d < 0 else d - b if d > b else 0
                        if dist:
                            u = (dist << up) / (y << down) * ratio
                            near_sq += u * u
                except OverflowError:
                    continue  # a distance over R past the float range: outside
                try:
                    for d, b, y in zip(offsets, cb, scales):
                        v = ((d if d + d > b else b - d) << up) / (y << down) * ratio
                        far_sq += v * v
                except OverflowError:
                    far_sq = math.inf  # not inside
            elif any(d < 0 or d > b for d, b in zip(offsets, cb)):
                continue  # radius 0, and the box misses the centre
            else:
                low, high = unit_cuts
                near_sq, far_sq = 0.0, math.inf  # radius 0: never inside
            if near_sq >= high or (
                near_sq > low and not exact_below(level, i, offsets, True)
            ):
                continue
            if far_sq <= low or (far_sq < high and exact_below(level, i, offsets, False)):
                sums[2 * i] += mass
                sums[2 * i + 1] += mass
                continue
            if level == depth:
                sums[2 * i + 1] += mass
            else:
                straddling.append(i)
        if straddling:
            straddling = tuple(straddling)
            scaled = tuple(map(mul, offsets, bases))
            for shifts, weight in children:
                stack.append((level + 1, tuple(map(sub, scaled, shifts)),
                              mass * weight, straddling))

    # over Q^deepest level reached, not Q^depth: the walk may stop early
    den = q_mass ** (len(levels) - 1)

    def bracket(i: int) -> RationalLog:
        num = 0
        for *_, row in levels:
            num = num * q_mass + row[i]
        return _rational_log(Fraction(num, den))

    return [(bracket(2 * i), bracket(2 * i + 1)) for i in range(len(rads))]


def _rational_log(x: Fraction) -> RationalLog:
    """x with its natural log, also when float(x) underflows to zero."""
    if not x:
        return RationalLog(x, -math.inf)
    f = x.numerator / x.denominator  # float(x), formed once
    if f == 0:
        return RationalLog(x, math.log(x.numerator) - math.log(x.denominator))
    return RationalLog(x, math.log(f))


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
