"""Property harness over sponges and measures.

Everything here checks a quantitative claim numerically instead of proving
it: measure-ratio sandwiches over random cube samples, ball-ratio scaling
with the sharp constants under the separation condition, adjacent-cube
ratio growth as a non-doubling certificate, and rescaled-piece convergence
to the product tangent set.  Every scan is deterministic given its seed,
and every report is written as JSON by ``report_to_json``, with fixed key
order so golden tests stay byte-stable.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .errors import (
    NonStrictBases,
    ScaleOutOfRange,
    UnsupportedBoundaryTangent,
    VsscNotSatisfied,
    ZeroMeasure,
)
from .cubes import (
    ApproximateCube,
    ScaleLike,
    _column_width,
    _cover_blocks,
    admit,
    approximate_cube,
    count_cubes,
    lattice_column,
    scale_exponents,
)
from .dims import assouad_dim, lower_dim
from .measure import (
    BernoulliMeasure,
    coordinate_uniform,
    _concentric_brackets,
    _log_mass,
)
from .model import DigitTuple, Sponge, satisfies_vssc
from .tolerances import _EPS, GROWTH_TOL


class Mode(enum.Enum):
    """Which extremal branching the tangent construction follows."""

    MAX = "max"
    MIN = "min"


# ---------------------------------------------------------------------------
# extremal witnesses and the tangent word


def extremal_witnesses(s: Sponge, mode: Mode) -> dict[int, DigitTuple]:
    """One digit tuple per level l = 2..d attaining the extremal fibre count.

    Ties are broken lexicographically, first on the level-(l-1) prefix and
    then on the completing digits, so the choice is deterministic.
    """
    pick = max if mode is Mode.MAX else min
    out: dict[int, DigitTuple] = {}
    for l in range(2, s.d + 1):
        target = pick(s.fibre_count(p) for p in s.level_sets[l - 1])
        prefix = min(p for p in s.level_sets[l - 1] if s.fibre_count(p) == target)
        out[l] = min(t for t in s.digits if t[: l - 1] == prefix)
    return out


def tangent_word(s: Sponge, R: ScaleLike, mode: Mode) -> tuple[DigitTuple, ...]:
    """The length-k_1(R) word whose rescaled cube approaches the product set.

    Positions up to k_d(R) hold the lexicographically smallest digit; the
    block of positions (k_l(R), k_{l-1}(R)] repeats the level-l witness.
    Needs strictly increasing bases, otherwise the blocks are empty and the
    construction collapses.
    """
    if not s.strict_bases:
        raise NonStrictBases(
            f"tangent words require strictly increasing bases, got {s.bases}"
        )
    ks = scale_exponents(s, R).k
    witnesses = extremal_witnesses(s, mode)
    lead = min(s.digits)
    word: list[DigitTuple] = [lead] * ks[s.d - 1]
    for l in range(s.d, 1, -1):
        word.extend([witnesses[l]] * (ks[l - 2] - ks[l - 1]))
    return tuple(word)


# ---------------------------------------------------------------------------
# tangent maps


@dataclass(frozen=True)
class TangentMap:
    """The rescaling x_l -> scales[l] x_l - offsets[l] of a cube's box to [0,1]^d.

    The box is a lattice cell: coordinate l is [o, o + 1] / n_l^{k_l}, where
    o = offsets[l] is the pinned coordinate-l digits read as a base-n_l
    integer.  The Lipschitz band [a, b] is the range of the scales n_l^{k_l},
    so b/a is at most the largest base.
    """

    cube: ApproximateCube
    scales: tuple[int, ...]
    offsets: tuple[int, ...]
    a: int
    b: int

    @classmethod
    def from_cube(cls, s: Sponge, q: ApproximateCube) -> "TangentMap":
        scales = tuple(n**k for n, k in zip(s.bases, q.exponents.k))
        offsets = tuple(  # each coordinate's one digit string, as its numerator
            lattice_column(n, zip(c))[0] for n, c in zip(s.bases, q.constraints)
        )
        return cls(q, scales, offsets, min(scales), max(scales))


def tangent_map(s: Sponge, R: ScaleLike, mode: Mode) -> TangentMap:
    word = tangent_word(s, R, mode)
    return TangentMap.from_cube(s, approximate_cube(s, word, R))


# ---------------------------------------------------------------------------
# the product tangent set and its pre-fractals


def hat_digit_alphabets(s: Sponge, mode: Mode) -> tuple[tuple[int, ...], ...]:
    """Per-coordinate digit alphabets of the product tangent set.

    Coordinate 1 uses the first-coordinate projection of the digit set;
    coordinate l >= 2 uses the fibre over the level-l witness prefix.
    """
    witnesses = extremal_witnesses(s, mode)
    alphabets = [tuple(p[0] for p in s.level_sets[1])]
    for l in range(2, s.d + 1):
        alphabets.append(s.fibre(witnesses[l][: l - 1]))
    return tuple(alphabets)


def _require_interior(s: Sponge, alphabets: Sequence[Sequence[int]]) -> None:
    # A single boundary digit pins that coordinate factor to {0} or {1},
    # pushing the whole product set onto the boundary of the unit cube.
    for l, alpha in enumerate(alphabets):
        if len(alpha) == 1 and alpha[0] in (0, s.bases[l] - 1):
            raise UnsupportedBoundaryTangent(
                f"coordinate {l + 1} tangent factor is the boundary point "
                f"{alpha[0]}/{s.bases[l] - 1}; the product set misses the "
                f"open unit cube and this construction does not apply"
            )


# ---------------------------------------------------------------------------
# rescaled cube pieces


def _tangent_cover(
    s: Sponge, R: ScaleLike, mode: Mode, level: int
) -> tuple[TangentMap, list[tuple[DigitTuple, ...]]]:
    """The tangent cube's map and the admissible digits at each word position.

    The length-`level` words inside the cube of the tangent word are the
    products of these per-position choices.  Positions from k_1 on pin no
    coordinate, so only the first k_1 choices are built before the count is
    admitted (``cubes.admit``); a huge level is refused without building
    the rest.
    """
    tmap = tangent_map(s, R, mode)
    k1 = tmap.cube.exponents.k[0]
    if level < k1:
        raise ScaleOutOfRange(
            f"cover level {level} is coarser than the cube depth {k1}"
        )
    digits = tuple(sorted(s.digit_set))
    head: list[tuple[DigitTuple, ...]] = []
    for t in range(k1):
        pinned = [(l, c[t]) for l, c in enumerate(tmap.cube.constraints) if len(c) > t]
        head.append(tuple(j for j in digits if all(j[l] == c for l, c in pinned)))
    admit(
        f"rescaled cover at level {level}",
        itertools.chain(map(len, head), itertools.repeat(len(digits), level - k1)),
    )
    return tmap, head + [digits] * (level - k1)


def _tangent_blocks(
    s: Sponge, R: ScaleLike, mode: Mode, level: int
) -> tuple[tuple[int, ...], int, Iterator[tuple]]:
    """The tangent image's denominators, box count, and columns block by block.

    The level-`level` cover of the tangent cube, pushed through the cube's
    rescaling map onto the unit cube, in word order.  Each image box is a
    lattice cell: coordinate l is a cell of the grid of side n_l^-(level - k_l).
    The cover is admitted at the call.
    """
    tmap, choices = _tangent_cover(s, R, mode, level)
    ks = tmap.cube.exponents.k
    # a digit the cube pins in coordinate l adds exactly what the map's offset
    # takes away, so the image reads it as 0
    image = [[tuple(0 if t < k else v for v, k in zip(j, ks)) for j in c]
             for t, c in enumerate(choices)]
    dens = tuple(n ** (level - k) for n, k in zip(s.bases, ks))
    return dens, math.prod(map(len, choices)), _cover_blocks(s.bases, image)


# ---------------------------------------------------------------------------
# Hausdorff-type distances between box sets


def _corner_dist(x: float, lo: float, hi: float) -> float:
    if x < lo:
        return lo - x
    if x > hi:
        return x - hi
    return 0.0


def _point_union_dist(x: float, starts: list[float], ends: list[float]) -> float:
    i = bisect_right(starts, x) - 1
    best = math.inf
    if i >= 0:
        if x <= ends[i]:
            return 0.0
        best = x - ends[i]
    if i + 1 < len(starts):
        best = min(best, starts[i + 1] - x)
    return best


def _interval_sup_dist(u: float, v: float, starts: list[float], ends: list[float]) -> float:
    """sup over x in [u,v] of the distance from x to the interval union."""
    best = max(_point_union_dist(u, starts, ends), _point_union_dist(v, starts, ends))
    # interior maxima sit at midpoints of coverage gaps inside [u, v]
    i = max(bisect_right(starts, u) - 1, 0)
    while i + 1 < len(starts) and ends[i] < v:
        gap_lo, gap_hi = ends[i], starts[i + 1]
        mid = (gap_lo + gap_hi) / 2.0
        if u <= mid <= v:
            best = max(best, (gap_hi - gap_lo) / 2.0)
        i += 1
    return best


def _interval_sup_bound(u: float, v: float, starts: list[float], ends: list[float]) -> float:
    """An upper bound on the sup over [u, v] of the distance to the union.

    The distance peaks at u, at v or at the middle of a coverage gap, where
    it is half the gap, so the endpoint distances and the half-widths of all
    gaps meeting (u, v) bound it.  Unlike ``_interval_sup_dist`` this grows
    with [u, v] and bounds that function on every sub-interval.
    """
    best = max(_point_union_dist(u, starts, ends), _point_union_dist(v, starts, ends))
    i = max(bisect_right(starts, u) - 1, 0)
    while i + 1 < len(starts) and ends[i] < v:
        best = max(best, (starts[i + 1] - ends[i]) / 2.0)
        i += 1
    return best


# Outward padding of a node box, per unit of the coordinate's map scale.  A
# leaf's float corner is accumulated over at most `level` additions of terms
# below 1 and then shifted and scaled, so its box can overshoot the exact
# cylinder box of an ancestor by about scale * (level + 9) * 2^-52; the pad
# is 2^8 times that and also covers the rounding of the bounds themselves.
_PAD_PER_SCALE = 2.0**-44


@dataclass(frozen=True)
class _CoverTree:
    """The tangent cover's word tree, with float boxes in image coordinates.

    A depth-t node is a length-t word inside the tangent cube.  Its lower
    corner is accumulated position by position in the original coordinates
    and pushed through the map, exactly as for the leaves, so rounding is
    monotone: no leaf corner lies below its ancestors' corners.  Its box
    reaches ``reach[t]`` beyond the corner: the cylinder side n_l^(k_l - t)
    plus ``pad`` for t < level, and the leaf side n_l^(k_l - level) at leaves.
    """

    steps: list[list[list[float]]]
    offsets: list[float]
    scales: list[float]
    reach: list[list[float]]
    pad: list[float]

    @classmethod
    def build(
        cls, s: Sponge, tmap: TangentMap, choices: Sequence[Sequence[DigitTuple]]
    ) -> "_CoverTree":
        level = len(choices)
        ks = tmap.cube.exponents.k
        steps = [
            [[j[l] / s.bases[l] ** (t + 1) for l in range(s.d)] for j in choices[t]]
            for t in range(level)
        ]
        pad = [k * (level + 8) * _PAD_PER_SCALE for k in tmap.scales]
        reach = [
            [s.bases[l] ** (ks[l] - t) + pad[l] for l in range(s.d)]
            for t in range(level)
        ]
        reach.append([s.bases[l] ** (ks[l] - level) for l in range(s.d)])
        return cls(
            steps,
            [o / k for o, k in zip(tmap.offsets, tmap.scales)],
            [float(v) for v in tmap.scales],
            reach,
            pad,
        )

    def least(
        self,
        score: Callable[[list[float], int], float],
        best: float = math.inf,
        leaf: list[float] | None = None,
        stop: float = -math.inf,
    ) -> tuple[float, list[float] | None]:
        """Least ``score`` over the leaves, by branch and bound, and its leaf.

        ``score(corner, t)`` takes a depth-t node's image lower corner.  It
        must be exact at leaves (t == level) and, below that, no larger than
        the score of any leaf under the node.  Children are visited in order
        of score, and a node is dropped once its score reaches the best leaf
        found: no leaf under it can be strictly smaller.

        A caller that already holds a leaf may start the walk from it: ``best``
        is that leaf's score and ``leaf`` its image corner, which is returned
        if no leaf scores below it.  The walk returns early, with the best
        leaf so far, once ``best <= stop``.  A walk that does not stop early
        returns the least leaf score exactly, whatever the start, since it is
        the minimum of the same float values.
        """
        level = len(self.steps)
        offsets, scales = self.offsets, self.scales
        stack: list[tuple[float, int, list[float]]] = [
            (-math.inf, 0, [0.0] * len(offsets))
        ]
        while stack and best > stop:
            bound, t, lo = stack.pop()
            if bound >= best:
                continue
            children = []
            for delta in self.steps[t]:
                child = [a + b for a, b in zip(lo, delta)]
                image = [(c - o) * k for c, o, k in zip(child, offsets, scales)]
                value = score(image, t + 1)
                if value < best:
                    if t + 1 == level:
                        best, leaf = value, image
                    else:
                        children.append((value, t + 1, child))
            children.sort(key=itemgetter(0), reverse=True)
            stack.extend(children)
        return best, leaf


@dataclass(frozen=True)
class TangentConvergence:
    """Distance between a rescaled cube cover and the product-set cover.

    ``map_scales`` and ``map_band`` are the tangent map's ``scales`` and its
    Lipschitz band (a, b).
    """

    scale: Fraction
    level: int
    refinement: int
    distance: float
    base_term: float
    slack_term: float
    bound: float
    ok: bool
    map_scales: tuple[int, ...]
    map_band: tuple[int, int]


def check_tangent_convergence(
    s: Sponge, R: ScaleLike, mode: Mode, level: int
) -> TangentConvergence:
    """Compare the rescaled cube piece at scale R against the product cover.

    The product cover is taken at refinement level - k_1(R), matching the
    rescaled boxes' coarsest coordinate.  The distance is the larger of two
    directed ones.  `away` is the worst squared distance from a rescaled
    box to the product cover, found per coordinate from the merged factor
    intervals.  `toward` is the worst distance from a corner of the product
    cover's cells to the nearest rescaled box; interior points of a cell can
    sit at most half a cell diagonal farther out, which the resolution slack
    absorbs.

    Neither direction builds the rescaled cover: both walk the tangent
    cube's word tree by branch and bound (``_CoverTree.least``).  A node's
    box is its cylinder box padded outward, so its distance from a corner
    bounds its leaves' from below (`toward`), and its worst distance to the
    product cover, plus the pad, bounds theirs from above (`away`).  Leaves
    are scored with the float expressions of a leaf-by-leaf scan and the
    square root is taken once at the end, so the result does not depend on
    which nodes were dropped.

    `toward` walks the corners in product order and keeps ``worst``, the
    largest nearest-leaf score so far.  Each corner is first scored against
    the leaf nearest the previous corner, its neighbour in that order.  If
    that score is <= ``worst``, the corner's least score is too, so it cannot
    raise the maximum and is skipped.  Otherwise the walk starts from that
    leaf's score and stops once its best drops to ``worst``.  A walk that
    ends above ``worst`` has taken the minimum over the same leaf values as
    a walk from scratch, so ``worst`` is the same float as the maximum of
    one full walk per corner.

    The reported bound has two parts: the block-length term
    sqrt(d) max_l n_l^{-(k_{l-1}-k_l)} coming from the construction, and a
    resolution slack 2 sqrt(d) max_l n_l^{-refinement} because finite covers
    stand in for the limit sets on both sides.
    """
    ks = scale_exponents(s, R)
    k1 = ks.k[0]
    if level <= k1:
        raise ScaleOutOfRange(
            f"need cover level > {k1} to refine the cube at this scale"
        )
    refinement = level - k1
    alphabets = hat_digit_alphabets(s, mode)
    _require_interior(s, alphabets)
    tmap, choices = _tangent_cover(s, R, mode, level)
    tree = _CoverTree.build(s, tmap, choices)

    factors: list[tuple[list[float], list[float]]] = []
    corner_values: list[list[float]] = []
    for l, n in enumerate(s.bases):
        res = n**refinement
        cells = lattice_column(n, [alphabets[l]] * refinement)
        run_lo: list[int] = []
        run_hi: list[int] = []
        for v in cells:
            if run_hi and v == run_hi[-1]:
                run_hi[-1] = v + 1
            else:
                run_lo.append(v)
                run_hi.append(v + 1)
        factors.append(([a / res for a in run_lo], [b / res for b in run_hi]))
        points = sorted(set(cells).union(v + 1 for v in cells))
        corner_values.append([p / res for p in points])
    admit(f"product-cell corners at refinement {refinement}", map(len, corner_values))

    def away_score(corner: list[float], t: int) -> float:
        total = 0.0
        for lo, r, pad, (starts, ends) in zip(corner, tree.reach[t], tree.pad, factors):
            if t == level:
                c = _interval_sup_dist(lo, lo + r, starts, ends)
            else:
                c = _interval_sup_bound(lo, lo + r, starts, ends) + pad
            total += c * c
        return -total

    def toward_score(x: tuple[float, ...], corner: list[float], t: int) -> float:
        total = 0.0
        for xl, lo, r in zip(x, corner, tree.reach[t]):
            c = _corner_dist(xl, lo, lo + r)
            total += c * c
        return total

    away = math.sqrt(-tree.least(away_score)[0])
    worst = 0.0
    hint = None
    for x in itertools.product(*corner_values):
        start = math.inf if hint is None else toward_score(x, hint, level)
        if start <= worst:
            continue
        value, hint = tree.least(partial(toward_score, x), start, hint, worst)
        worst = max(worst, value)
    toward = math.sqrt(worst)
    distance = max(away, toward)

    rd = math.sqrt(s.d)
    base = rd * max(
        s.bases[l - 1] ** -(ks.k[l - 2] - ks.k[l - 1]) for l in range(2, s.d + 1)
    )
    slack = 2 * rd * max(s.bases[l] ** -refinement for l in range(s.d))
    bound = base + slack
    return TangentConvergence(
        scale=ks.scale,
        level=level,
        refinement=refinement,
        distance=distance,
        base_term=base,
        slack_term=slack,
        bound=bound,
        ok=distance <= bound + _EPS,
        map_scales=tmap.scales,
        map_band=(tmap.a, tmap.b),
    )


# ---------------------------------------------------------------------------
# measure-ratio scans


@dataclass(frozen=True)
class ScanViolation:
    """One broken side of a sandwich; ``word`` is the sample's word label."""

    word: str
    r: Fraction
    R: Fraction
    ratio: float
    bound: float
    side: str


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a seeded sandwich scan.

    Slacks are log-space margins (bound minus observed, oriented so that
    non-negative means satisfied); the worst slack over all samples is
    reported per side, and every sample with a negative margin appears in
    ``violations``.  ``rows`` holds one (word, label suffix, r, R, ratio,
    lower bound, upper bound) per sample for ``scan_samples_csv``, not for
    the JSON document.
    """

    kind: str
    samples: int
    worst_lower_slack: float
    worst_upper_slack: float
    violation_count: int
    violations: tuple[ScanViolation, ...]
    constants_used: tuple[float, float]
    exponents: tuple[float, float]
    coordinate_uniform_measure: bool
    rows: tuple[tuple, ...] = field(metadata={"document": False})


def _exp(x: float) -> float:
    """math.exp(x), or inf where the result is too large for a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _is_coordinate_uniform(s: Sponge, m: BernoulliMeasure) -> bool:
    return m.weights == coordinate_uniform(s).weights


def _word_label(word: Sequence[Sequence[int]]) -> str:
    return ";".join(",".join(str(e) for e in t) for t in word)


def _draw_digits(rng: random.Random, digits: list[DigitTuple], count: int) -> tuple:
    """What ``count`` calls of ``rng.choice(digits)`` return, drawn by the same
    ``getrandbits`` rejection loop as CPython 3.10-3.12, minus the call overhead."""
    n = len(digits)
    k = n.bit_length()
    getrandbits = rng.getrandbits
    drawn = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        drawn.append(digits[r])
    return tuple(drawn)


_Sample = tuple[int, int, tuple[DigitTuple, ...], str, Fraction, Fraction, float, float]


def _sandwich_scan(
    s: Sponge, kind: str, samples: int, seed: int, spread: int, uniform: bool,
    draw: Callable[[random.Random, list[DigitTuple]], _Sample],
) -> ScanReport:
    """The seeded loop of both sandwich scans.

    ``draw(rng, digits)`` draws one sample (a, b, word, suffix, r, R, low,
    high): the scale pair (R, r) is proportional to (n_1^-a, n_1^-b) and
    log mass(R)/mass(r) lies in [low, high].  The loop checks
    c0 (R/r)^lower <= mass(R)/mass(r) <= c1 (R/r)^assouad in log space,
    with c1 = n_d^d spread^assouad and c0 = n_d^-d spread^-lower.  Each
    side is tested on the end of [low, high] least likely to break it, so a
    violation is recorded only when even that end does.  A row's ratio is
    exp(high); word labels are built only for violations and the CSV.
    """
    dim_hi = assouad_dim(s)
    dim_lo = lower_dim(s)
    nd = s.bases[-1]
    c1 = float(nd**s.d) * spread**dim_hi
    c0 = float(Fraction(1, nd**s.d)) * spread**-dim_lo
    log_c0, log_c1 = math.log(c0), math.log(c1)
    log_n1 = math.log(s.bases[0])
    digits = sorted(s.digit_set)
    rng = random.Random(seed)

    worst_lo = worst_hi = math.inf
    violations: list[ScanViolation] = []
    rows: list[tuple] = []
    for _ in range(samples):
        a, b, word, suffix, small, big, low, high = draw(rng, digits)
        gap = (b - a) * log_n1
        log_upper = log_c1 + dim_hi * gap
        log_lower = log_c0 + dim_lo * gap
        up_slack = log_upper - low
        lo_slack = high - log_lower
        worst_hi = min(worst_hi, up_slack)
        worst_lo = min(worst_lo, lo_slack)
        label = _word_label(word) if up_slack < -_EPS or lo_slack < -_EPS else ""
        ratio = _exp(high)
        upper = _exp(log_upper)
        lower = _exp(log_lower)
        rows.append((word, suffix, small, big, ratio, lower, upper))
        if up_slack < -_EPS:
            violations.append(ScanViolation(label, small, big, _exp(low), upper, "upper"))
        if lo_slack < -_EPS:
            violations.append(ScanViolation(label, small, big, ratio, lower, "lower"))
    return ScanReport(
        kind=kind,
        samples=samples,
        worst_lower_slack=worst_lo,
        worst_upper_slack=worst_hi,
        violation_count=len(violations),
        violations=tuple(violations),
        constants_used=(c0, c1),
        exponents=(dim_lo, dim_hi),
        coordinate_uniform_measure=uniform,
        rows=tuple(rows),
    )


def scan_cube_ratios(
    s: Sponge,
    m: BernoulliMeasure,
    samples: int,
    seed: int,
    depth: int = 40,
) -> ScanReport:
    """Check the two-sided cube-mass sandwich over seeded random samples.

    Draws a random word and a scale pair (R, r) = (n_1^-a, n_1^-b) with
    a < b <= depth, and checks
    n_d^-d (R/r)^lower <= mass(R)/mass(r) <= n_d^d (R/r)^assouad
    in log space, from the measure's log-factor table and the exponents of
    each scale drawn, computed once.  The samples * depth word entries are
    admitted (``cubes.admit``) before any word is drawn.
    """
    if not s.strict_bases:
        raise NonStrictBases(
            f"the sandwich exponents need strictly increasing bases, got {s.bases}"
        )
    if samples < 1 or depth < 1:
        raise ScaleOutOfRange("samples and depth must be positive")
    admit(f"{samples} samples at depth {depth}", (samples, depth))
    n1 = s.bases[0]
    exponents = cache(lambda a: scale_exponents(s, Fraction(1, n1**a)))

    def draw(rng: random.Random, digits: list[DigitTuple]) -> _Sample:
        a = rng.randrange(0, depth)
        b = rng.randrange(a + 1, depth + 1)
        word = _draw_digits(rng, digits, b)
        big, small = exponents(a), exponents(b)
        log_ratio = _log_mass(m, word, big.k) - _log_mass(m, word, small.k)
        return a, b, word, "", small.scale, big.scale, log_ratio, log_ratio

    return _sandwich_scan(
        s, "cube-ratio", samples, seed, 1, _is_coordinate_uniform(s, m), draw
    )


def _tau_point(
    s: Sponge, prefix: Sequence[DigitTuple], tail: DigitTuple
) -> tuple[Fraction, ...]:
    """Exact image of the word prefix followed by the constant tail.

    Coordinate l is one numerator over n_l^depth * (n_l - 1): the prefix
    read as a base-n_l integer, times n_l - 1, plus the tail digit.
    """
    depth = len(prefix)
    point = []
    for l, n in enumerate(s.bases):
        num = 0
        for digit in prefix:
            num = num * n + digit[l]
        point.append(Fraction(num * (n - 1) + tail[l], n**depth * (n - 1)))
    return tuple(point)


def scan_ball_ratios_vssc(
    s: Sponge,
    samples: int,
    seed: int,
    depth: int = 8,
) -> ScanReport:
    """Ball-mass scaling scan with the sharp constants, under separation.

    Centers are exact images of eventually-constant words; radii come in
    pairs (n_1^-a / 2, n_1^-b / 2) with a < b < depth.  Ball masses are
    known only as brackets, so each side is tested conservatively: a
    violation is recorded only when even the favorable ends of the brackets
    break the bound.  The samples * depth word entries are admitted
    (``cubes.admit``) before any word is drawn.
    """
    if not satisfies_vssc(s):
        raise VsscNotSatisfied(
            "ball-ratio scaling needs the separation condition: some pair of "
            "digits agreeing before a coordinate differs there by exactly 1"
        )
    if samples < 1 or depth < 2:
        raise ScaleOutOfRange("need samples >= 1 and depth >= 2")
    admit(f"{samples} samples at depth {depth}", (samples, depth))
    m = coordinate_uniform(s)
    n1 = s.bases[0]

    def draw(rng: random.Random, digits: list[DigitTuple]) -> _Sample:
        a = rng.randrange(0, depth - 1)
        b = rng.randrange(a + 1, depth)
        drawn = _draw_digits(rng, digits, depth + 1)
        word, tail = drawn[:depth], drawn[depth]
        center = _tau_point(s, word, tail)
        big = Fraction(1, 2 * n1**a)
        small = Fraction(1, 2 * n1**b)
        (blo, bhi), (slo, shi) = _concentric_brackets(m, center, (big, small), b + 3)
        low = blo.log_value - shi.log_value  # -inf when blo is 0
        high = bhi.log_value - slo.log_value  # +inf when slo is 0
        return a, b, word, "|" + _word_label([tail]), small, big, low, high

    spread = 2 * sum(s.bases) * n1**2
    return _sandwich_scan(s, "ball-ratio", samples, seed, spread, True, draw)


def scan_samples_csv(report: ScanReport) -> str:
    """Per-sample dump: word, r, R, ratio, lower_bound, upper_bound."""
    lines = ["word,r,R,ratio,lower_bound,upper_bound"]
    for word, suffix, r, R, ratio, lo, hi in report.rows:
        lines.append(
            f"{_word_label(word)}{suffix},{r.numerator}/{r.denominator},"
            f"{R.numerator}/{R.denominator},{ratio!r},{lo!r},{hi!r}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# doubling detection


class DoublingVerdict(enum.Enum):
    DOUBLING = "DoublingUpToDepth"
    NON_DOUBLING = "NonDoublingCertificate"


@dataclass(frozen=True)
class DepthRatioRow:
    depth: int
    pair_count: int
    max_ratio: float | None
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None


@dataclass(frozen=True)
class DoublingReport:
    max_depth: int
    per_depth: tuple[DepthRatioRow, ...]
    growth_rate: float
    verdict: DoublingVerdict
    window_start: int | None


def _moves(s: Sponge, w: int, l: int):
    """Tuple pairs (p, q) of ``level_sets[w]``, q one step up from p in coordinate l.

    ``steps`` pair a tuple whose l-digit c is below n - 1 with the same tuple
    at c + 1; ``wraps`` pair a tuple at n - 1 with the same tuple at 0.  Only
    pairs whose both tuples are in the level set are kept.
    """
    level_set, n = s.level_sets[w], s.bases[l]
    members = set(level_set)
    steps: list[tuple[DigitTuple, DigitTuple]] = []
    wraps: list[tuple[DigitTuple, DigitTuple]] = []
    for p in level_set:
        q = p[:l] + ((p[l] + 1) % n,) + p[l + 1 :]
        if q in members:
            (steps if p[l] < n - 1 else wraps).append((p, q))
    return steps, wraps


def _largest(quotients: list[tuple]) -> tuple | None:
    """The first (num, den, ...) of ``quotients`` with the largest num/den."""
    best = None
    for q in quotients:
        if best is None or q[0] * best[1] > best[0] * q[1]:
            best = q
    return best


@lru_cache(maxsize=1)
def _sponge_moves(s: Sponge) -> dict:
    """``_moves(s, w, l)`` for every level-set width w and coordinate l < w."""
    return {(w, l): _moves(s, w, l) for w in range(1, s.d + 1) for l in range(w)}


def _move_extremes(moves: dict, m: BernoulliMeasure) -> dict:
    """(w, l, steps or wraps, direction) -> the largest (num, den, lower) quotient.

    A move (p, q) of ``moves[w, l]`` has the prefix-mass quotient
    mass(p)/mass(q) in direction 1 and its inverse in direction -1, kept as
    an unreduced integer pair.  Moves run in order of their lower tuple, so
    among equal quotients the least lower tuple is kept; None when there is
    no move.  The table reads the measure alone, so one serves every depth.
    """
    extreme, mass = {}, m.prefix_mass
    for (w, l), kinds in moves.items():
        for i, kind in enumerate(kinds):
            up = []
            for p, q in kind:
                a, b = mass(p).as_integer_ratio()
                c, e = mass(q).as_integer_ratio()
                up.append((a * e, b * c, p))
            extreme[w, l, i, 1] = _largest(up)
            extreme[w, l, i, -1] = _largest([(d, n, p) for n, d, p in up])
    return extreme


class _DepthPlan:
    """The moves that pair adjacent cubes at one depth, for any measure.

    Position t of a word picks a tuple of L_t, the level set of its first
    ``widths[t]`` coordinates.  The neighbour one step up in coordinate l
    steps the l-digit up at the last position j < k_l where it is below
    n_l - 1, wraps it from n_l - 1 to 0 at j+1..k_l-1, and moves nothing
    else, each moved tuple staying in its L_t; ``moves[w, l]`` holds these
    ``_moves`` on the L of width w, shared by every plan of the sponge.
    A plan reads no measure: a row chains the per-position extremes of a
    ``_move_extremes`` table, which is built once per measure.
    """

    def __init__(self, s: Sponge, k: int) -> None:
        r = Fraction(1, s.bases[0] ** k)
        count = count_cubes(s, r)
        admit(f"depth {k} needs {count} cubes", [count])
        self.ks = ks = scale_exponents(s, r).k
        self.bases = s.bases
        self.widths = [_column_width(ks, t) for t in range(1, ks[0] + 1)]
        sets = [s.level_sets[w] for w in self.widths]
        self.least = [min(level_set) for level_set in sets]
        moves = _sponge_moves(s)
        self.moves = {(w, l): moves[w, l] for w in set(self.widths) for l in range(w)}
        self.pair_count = 0
        for l, kl in enumerate(ks):
            tail = 1  # wrap choices at positions j+1..kl-1
            for j in range(kl - 1, -1, -1):
                steps, wraps = self.moves[self.widths[j], l]
                free = math.prod(map(len, sets[:j] + sets[kl:]))
                self.pair_count += len(steps) * tail * free
                tail *= len(wraps)

    def least_lower(self, l: int, lower: tuple) -> tuple[int, ...]:
        """Grid coordinates of the least cube with ``lower`` at positions
        k_l - len(lower)..k_l-1: it has L_t's least tuple at every other t,
        as grid coordinates add over positions, lexicographic order is kept
        under addition, and one position's term orders like its tuple.
        """
        kl = self.ks[l]
        word = [*self.least[: kl - len(lower)], *lower, *self.least[kl:]]
        coordinates = []
        for i, (n, ki) in enumerate(zip(self.bases, self.ks)):
            c = 0
            for p in word[:ki]:
                c = c * n + p[i]
            coordinates.append(c)
        return tuple(coordinates)

    def max_ratio_row(self, depth: int, extreme: dict) -> DepthRatioRow:
        """The row of one measure: its largest adjacent mass ratio and witness.

        A pair's ratio is the larger of its lower-over-upper mass quotient
        (direction 1) and its inverse, a product of independently chosen
        prefix-mass quotients, one per moved position.  So per (l, j,
        direction) the largest takes each position's largest, read from the
        measure's ``_move_extremes`` table ``extreme``, and its least pair
        each position's least lower tuple among ties.  A maximum above the
        float range raises ZeroMeasure.
        """
        if not self.pair_count:
            return DepthRatioRow(depth, 0, None, None)
        found = []
        for l, kl in enumerate(self.ks):
            for e in (1, -1):
                num, den, lows = 1, 1, ()
                for w in reversed(self.widths[:kl]):
                    step, wrap = extreme[w, l, 0, e], extreme[w, l, 1, e]
                    if step:
                        found.append((step[0] * num, step[1] * den, l, (step[2], *lows)))
                    if not wrap:
                        break
                    num, den, lows = wrap[0] * num, wrap[1] * den, (wrap[2], *lows)
        num, den, _, _ = _largest(found)
        lower, l = min(
            (self.least_lower(l, lows), l) for n, d, l, lows in found if n * den == num * d
        )
        try:
            top = num / den
        except OverflowError:
            raise ZeroMeasure(
                f"the largest adjacent mass ratio at depth {depth} exceeds the "
                "float range"
            ) from None
        upper = (*lower[:l], lower[l] + 1, *lower[l + 1 :])
        return DepthRatioRow(depth, self.pair_count, top, (lower, upper))


def _slope(points: list[tuple[float, float]]) -> float:
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0:
        return 0.0
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx


@lru_cache(maxsize=1)
def _depth_plans(s: Sponge, max_depth: int) -> tuple[_DepthPlan, ...]:
    return tuple(_DepthPlan(s, k) for k in range(1, max_depth + 1))


def doubling_report(s: Sponge, m: BernoulliMeasure, max_depth: int) -> DoublingReport:
    """Adjacent-cube mass ratios per depth and their geometric growth.

    At each depth k two scale-(n_1^-k) cubes are adjacent when their
    covering boxes share a (d-1)-dimensional face, i.e. the integer grid
    coordinates differ by one in exactly one coordinate.

    The plans of all depths (``_DepthPlan``, which read no measure) are
    built, and checked against the cap, before any row, and kept for the
    next call with the same sponge and depth.  The measure is read once,
    into one ``_move_extremes`` table that every depth's row chains, so a
    sweep plans once and reads each measure once.
    ``max_ratio`` is the exact maximum, correctly rounded to a float.  The
    witness is the first pair, in lexicographic order of the lower cube's
    grid coordinates and then the coordinate of the step, whose ratio
    equals the maximum exactly, so exact ties are never broken by rounding.

    The growth rate is fitted over buckets of depths sharing the
    finest-coordinate refinement count, using each bucket's maximum ratio;
    the non-doubling verdict additionally requires the per-depth maxima to
    rise monotonically across three consecutive depths with a strict net
    gain, so transient bumps are not flagged.
    """
    if max_depth < 1:
        raise ScaleOutOfRange(f"max_depth must be >= 1, got {max_depth}")
    plans = _depth_plans(s, max_depth)
    moves = {key: kinds for plan in plans for key, kinds in plan.moves.items()}
    extreme = _move_extremes(moves, m)
    rows = [plan.max_ratio_row(k, extreme) for k, plan in enumerate(plans, 1)]
    bucket_best: dict[int, float] = {}
    for plan, row in zip(plans, rows):
        if row.max_ratio is not None:
            v = plan.ks[-1]
            bucket_best[v] = max(bucket_best.get(v, 0.0), row.max_ratio)
    last_bucket = plans[-1].ks[-1]
    points = [
        (float(v), math.log(r))
        for v, r in sorted(bucket_best.items())
        if v < last_bucket and r > 0
    ]
    growth = math.exp(_slope(points)) if len(points) >= 2 else 1.0

    window = None
    ratios = [row.max_ratio for row in rows]
    for i in range(len(ratios) - 2):
        a, b, c = ratios[i], ratios[i + 1], ratios[i + 2]
        if a is None or b is None or c is None:
            continue
        if b >= a and c >= b and c > a * (1 + _EPS):
            window = rows[i].depth
            break

    non_doubling = growth > 1 + GROWTH_TOL and window is not None
    return DoublingReport(
        max_depth=len(plans),
        per_depth=tuple(rows),
        growth_rate=growth,
        verdict=(
            DoublingVerdict.NON_DOUBLING if non_doubling else DoublingVerdict.DOUBLING
        ),
        window_start=window if non_doubling else None,
    )


# ---------------------------------------------------------------------------
# serialization


def _plain(value: object) -> object:
    """What ``json`` cannot write itself, as JSON data; see ``report_to_json``."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, enum.Enum):
        return value.value
    if is_dataclass(value):
        return {
            f.name: getattr(value, f.name)
            for f in fields(value)
            if f.metadata.get("document", True)
        }
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def report_to_json(report: object) -> str:
    """The JSON document of a report or a mapping, schema version first.

    Every document the package prints is written here.  A dataclass gives
    its fields in declaration order, except those whose metadata sets
    ``document`` to False; a mapping gives its items in order.  At any
    depth a Fraction is written "p/q", an enum as its value and a tuple as
    a list; floats keep their repr round-trip.  Nested values are converted
    as ``json`` reaches them, so nothing is copied ahead of the writing.
    """
    body = _plain(report) if is_dataclass(report) else report
    return json.dumps({"schema_version": 1, **body}, indent=2, default=_plain)
