"""Brute-force reference computations.

Everything here works by enumerating symbolic words outright, with none of the
closed forms or factorizations used by the library, so agreement is meaningful
evidence rather than the same code run twice.
"""

import functools
import itertools
import math
from fractions import Fraction

from spongedim import (
    ApproximateCube,
    BernoulliMeasure,
    EnumerationTooLarge,
    ScaleOutOfRange,
    Sponge,
    scale_exponents,
)
from spongedim.cubes import DEFAULT_CAP

Signature = tuple[tuple[int, ...], ...]


def cube_signature(s: Sponge, word, k: tuple[int, ...]) -> Signature:
    """Per-coordinate digit tracks of ``word`` truncated to the exponents."""
    return tuple(tuple(t[l] for t in word[: k[l]]) for l in range(s.d))


@functools.lru_cache(maxsize=2)
def all_signatures(s: Sponge, r) -> frozenset[Signature]:
    """Every distinct constraint pattern at scale ``r``, by full enumeration.

    Kept for the last two (sponge, scale) pairs, so a count and the subcube
    checks that follow it at one scale enumerate it once.
    """
    k = scale_exponents(s, r).k
    words = itertools.product(s.digits, repeat=k[0])
    return frozenset(cube_signature(s, w, k) for w in words)


def brute_count_cubes(s: Sponge, r) -> int:
    return len(all_signatures(s, r))


def brute_subcube_signatures(s: Sponge, q: ApproximateCube, r) -> set[Signature]:
    """Signatures at scale ``r`` whose constraints extend those of ``q``."""
    out = set()
    for sig in all_signatures(s, r):
        if all(
            sig[l][: len(q.constraints[l])] == q.constraints[l]
            for l in range(s.d)
        ):
            out.add(sig)
    return out


def brute_cube_measure(m: BernoulliMeasure, word, r) -> Fraction:
    """Total weight of all words consistent with the cube of ``word`` at ``r``.

    Depth-first over word positions, discarding a branch as soon as some
    coordinate track disagrees with the target constraints; the surviving
    leaves are exactly the consistent words and their product weights are
    summed in exact rationals.
    """
    s = m.sponge
    k = scale_exponents(s, r).k
    target = cube_signature(s, tuple(word[: k[0]]), k)

    def recurse(pos: int, acc: Fraction) -> Fraction:
        if pos == k[0]:
            return acc
        total = Fraction(0)
        for t in s.digits:
            if any(k[l] > pos and t[l] != target[l][pos] for l in range(s.d)):
                continue
            total += recurse(pos + 1, acc * m.weights[t])
        return total

    return recurse(0, Fraction(1))


def cube_factors(m: BernoulliMeasure, word, r) -> list[Fraction]:
    """The one-step conditional probabilities of the cube of ``word`` at ``r``.

    Coordinate outer, position inner, each P(t[:l+1]) / P(t[:l]) with the
    prefix masses summed from the weights, in the order the library sums
    their logs.  Their product is the cube mass.
    """
    s = m.sponge

    def mass(p):
        return sum(w for t, w in m.weights.items() if t[: len(p)] == p)

    k = scale_exponents(s, r).k
    return [
        mass(t[: l + 1]) / mass(t[:l])
        for l in range(s.d)
        for t in word[: k[l]]
    ]


def log_sum(factors) -> float:
    """The float sum of math.log over ``factors``, left to right from 0.0."""
    total = 0.0
    for c in factors:
        total += math.log(c)
    return total


def scale_depths(s: Sponge, r: Fraction) -> tuple[int, ...]:
    """Largest k with r * n^k <= 1 per base, by repeated Fraction products."""
    ks = []
    for n in s.bases:
        k = 0
        acc = r
        while acc * n <= 1:
            acc *= n
            k += 1
        ks.append(k)
    return tuple(ks)


def scan_cube_ratios(s: Sponge, m: BernoulliMeasure, samples: int, seed: int,
                     depth: int = 40):
    """The cube sandwich scan with masses from Fraction conditional factors.

    Draws the same samples as ``scan_cube_ratios`` and builds each mass log
    from ``cube_factors``, so only the bookkeeping is shared with the library.
    """
    import random

    from spongedim import assouad_dim, lower_dim
    from spongedim.verify import (
        _EPS, ScanReport, ScanViolation, _exp, _is_coordinate_uniform, _word_label,
    )

    dim_hi = assouad_dim(s)
    dim_lo = lower_dim(s)
    nd = s.bases[-1]
    c1 = float(nd**s.d)
    c0 = float(Fraction(1, nd**s.d))
    log_n1 = math.log(s.bases[0])
    digits = sorted(s.digit_set)
    rng = random.Random(seed)
    worst_lo = worst_hi = math.inf
    violations = []
    rows = []
    for _ in range(samples):
        a = rng.randrange(0, depth)
        b = rng.randrange(a + 1, depth + 1)
        word = tuple(rng.choice(digits) for _ in range(b))
        big = Fraction(1, s.bases[0] ** a)
        small = Fraction(1, s.bases[0] ** b)
        log_ratio = (
            log_sum(cube_factors(m, word, big)) - log_sum(cube_factors(m, word, small))
        )
        gap = (b - a) * log_n1
        log_upper = math.log(c1) + dim_hi * gap
        log_lower = math.log(c0) + dim_lo * gap
        up_slack = log_upper - log_ratio
        lo_slack = log_ratio - log_lower
        worst_hi = min(worst_hi, up_slack)
        worst_lo = min(worst_lo, lo_slack)
        ratio = _exp(log_ratio)
        rows.append((word, "", small, big, ratio, _exp(log_lower), _exp(log_upper)))
        if up_slack < -_EPS:
            violations.append(
                ScanViolation(_word_label(word), small, big, ratio, _exp(log_upper),
                              "upper")
            )
        if lo_slack < -_EPS:
            violations.append(
                ScanViolation(_word_label(word), small, big, ratio, _exp(log_lower),
                              "lower")
            )
    return ScanReport(
        kind="cube-ratio",
        samples=samples,
        worst_lower_slack=worst_lo,
        worst_upper_slack=worst_hi,
        violation_count=len(violations),
        violations=tuple(violations),
        constants_used=(c0, c1),
        exponents=(dim_lo, dim_hi),
        coordinate_uniform_measure=_is_coordinate_uniform(s, m),
        rows=tuple(rows),
    )


def _interval_sq_bounds(c: Fraction, lo: Fraction, hi: Fraction):
    """(min, max) squared distance from a point coordinate to an interval."""
    if c < lo:
        near = lo - c
    elif c > hi:
        near = c - hi
    else:
        near = Fraction(0)
    far = max(c - lo, hi - c)
    return near * near, far * far


def ball_measure_bounds(m: BernoulliMeasure, center, radius, depth: int):
    """Ball-mass brackets with Fraction box corners, distances and masses.

    The same walk and decisions as ``ball_measure_bounds``, node by node in
    exact rationals: a box that meets the open ball (touches the point at
    radius 0) counts toward the upper bracket, one inside the closed ball
    toward both, and a box still straddling at ``depth`` toward the upper.
    """
    from spongedim.measure import _rational_log

    s = m.sponge
    c = tuple(Fraction(x) for x in center)
    rad = Fraction(radius)
    r2 = rad * rad
    lower = Fraction(0)
    upper = Fraction(0)
    stack = [(0, (0,) * s.d, Fraction(1))]
    while stack:
        level, nums, mass = stack.pop()
        min_sq = Fraction(0)
        max_sq = Fraction(0)
        for l in range(s.d):
            den = s.bases[l] ** level
            near, far = _interval_sq_bounds(
                c[l], Fraction(nums[l], den), Fraction(nums[l] + 1, den)
            )
            min_sq += near
            max_sq += far
        meets_ball = min_sq < r2 if rad > 0 else min_sq == 0
        if not meets_ball:
            continue
        if rad > 0 and max_sq <= r2:
            lower += mass
            upper += mass
            continue
        if level == depth:
            upper += mass
            continue
        for t in s.digits:
            child = tuple(nums[l] * s.bases[l] + t[l] for l in range(s.d))
            stack.append((level + 1, child, mass * m.weights[t]))
    return _rational_log(lower), _rational_log(upper)


def ledrappier_young_dim(s: Sponge, weights) -> float:
    """Dimension of the Bernoulli measure with digit weights ``weights``.

    The Ledrappier-Young formula for sponges, H(pi_1 p) / log n_1 plus
    (H(pi_l p) - H(pi_{l-1} p)) / log n_l over l = 2..d, where pi_l p is the
    law of a digit's first l coordinates and H its entropy (Kenyon and
    Peres, "Measures of full dimension on affine-invariant sets", ETDS 1996).
    Its maximum over all weights is the Hausdorff dimension.
    """
    def entropy(l):
        law = {}
        for t, w in weights.items():
            law[t[:l]] = law.get(t[:l], 0.0) + float(w)
        return -sum(w * math.log(w) for w in law.values() if w > 0)

    value = entropy(1) / math.log(s.bases[0])
    for l in range(2, s.d + 1):
        value += (entropy(l) - entropy(l - 1)) / math.log(s.bases[l - 1])
    return value


def full_dimension_weights(s: Sponge) -> dict:
    """The digit weights at which ``ledrappier_young_dim`` is largest.

    Z_d = 1 on the digits and Z_{l-1}(q) = sum_j Z_l(q + j)^e_l over the
    level-l prefixes q + j, with e_l = log n_l / log n_{l+1} and n_{d+1} =
    n_d.  After the prefix q the next coordinate j has conditional weight
    Z_l(q + j)^e_l / Z_{l-1}(q), and a digit's weight is the product of its
    d conditional weights.
    """
    z = {s.d: {t: 1.0 for t in s.digits}}
    powers = {}
    for l in range(s.d, 0, -1):
        e = math.log(s.bases[l - 1]) / math.log(s.bases[min(l, s.d - 1)])
        powers[l] = {q: v**e for q, v in z[l].items()}
        z[l - 1] = {}
        for q, v in powers[l].items():
            z[l - 1][q[:-1]] = z[l - 1].get(q[:-1], 0.0) + v
    return {
        t: math.prod(powers[l][t[:l]] / z[l - 1][t[: l - 1]] for l in range(1, s.d + 1))
        for t in s.digits
    }


def _digit_intervals(base: int, alphabet, level: int) -> list[tuple[Fraction, Fraction]]:
    """Intervals of the length-``level`` strings over ``alphabet``, in string order.

    A string j_1..j_m starts at sum_t j_t / base^t, and the strings run
    lexicographically over the sorted alphabet, the first position slowest.
    """
    out = []
    for combo in itertools.product(sorted(alphabet), repeat=level):
        lo = Fraction(0)
        for depth, j in enumerate(combo, start=1):
            lo += Fraction(j, base**depth)
        out.append((lo, lo + Fraction(1, base**level)))
    return out


def alphabet_intervals(base: int, alphabet, level: int) -> list[tuple[Fraction, Fraction]]:
    """Level-``level`` intervals of the IFS {x -> (x + j)/base : j in alphabet}."""
    return sorted(set(_digit_intervals(base, alphabet, level)))


def cube_box(s: Sponge, q: ApproximateCube):
    """The exact box of an approximate cube, one Fraction pair per coordinate.

    Coordinate l starts at sum_t c_t / n_l^t over the cube's pinned digits
    c_1..c_k of that coordinate and has side n_l^-k.
    """
    box = []
    for n, digits in zip(s.bases, q.constraints):
        lo = sum((Fraction(c, n**t) for t, c in enumerate(digits, 1)), Fraction(0))
        box.append((lo, lo + Fraction(1, n ** len(digits))))
    return tuple(box)


def boxset_boxes(dens, blocks):
    """A cover's boxes, given block by block, as Fraction pairs box by box."""
    return tuple(box for block in blocks for box in zip(*(
        [(Fraction(v, den), Fraction(v + 1, den)) for v in column]
        for column, den in zip(block, dens)
    )))


def brute_adjacent_max_ratio(s: Sponge, m: BernoulliMeasure, depth: int):
    """Max measure ratio over face-sharing cube pairs at scale n1^-depth.

    Geometric: realizes every cube as an exact rational box and compares
    boxes pairwise, so it shares nothing with the grid-index bookkeeping in
    the library's doubling scan. Quadratic in the cube count; keep depth low.
    """
    from spongedim import approximate_cube, cube_measure

    r = Fraction(1, s.bases[0] ** depth)
    k = scale_exponents(s, r).k
    sigs = all_signatures(s, r)
    entries = []
    for sig in sigs:
        word = word_from_signature(s, sig, k)
        q = approximate_cube(s, word, r)
        mass = cube_measure(m, word, r).exact
        entries.append((cube_box(s, q), mass))
    best = None
    for (box_a, mass_a), (box_b, mass_b) in itertools.combinations(entries, 2):
        if _share_face(box_a, box_b):
            ratio = max(
                Fraction(mass_a, mass_b), Fraction(mass_b, mass_a)
            )
            if best is None or ratio > best:
                best = ratio
    return best


def word_from_signature(s: Sponge, sig: Signature, k: tuple[int, ...]):
    """Some word over D realizing the given constraint pattern."""
    word = []
    for pos in range(k[0]):
        for t in s.digits:
            if all(k[l] <= pos or t[l] == sig[l][pos] for l in range(s.d)):
                word.append(t)
                break
        else:
            raise AssertionError("unrealizable signature")
    return tuple(word)


def _share_face(a, b) -> bool:
    """True when two closed boxes intersect in a full (d-1)-dimensional face."""
    touching = 0
    for (alo, ahi), (blo, bhi) in zip(a, b):
        if alo == blo and ahi == bhi:
            continue
        if ahi == blo or bhi == alo:
            touching += 1
        else:
            return False
    return touching == 1


def prefractal_boxes(s: Sponge, level: int):
    """Level-``level`` pre-fractal boxes, one Fraction pair per coordinate.

    Sums each word's contractions box by box in exact rationals, in the
    lexicographic word order ``cubes._prefractal_blocks`` promises.
    """
    boxes = []
    for w in itertools.product(s.digits, repeat=level):
        box = []
        for l, n in enumerate(s.bases):
            lo = sum(
                (Fraction(entry[l], n ** (t + 1)) for t, entry in enumerate(w)),
                Fraction(0),
            )
            box.append((lo, lo + Fraction(1, n**level)))
        boxes.append(tuple(box))
    return tuple(boxes)


def boxes_csv(boxes) -> str:
    """CSV of exact box corners, formatted box by box."""
    d = len(boxes[0])
    lines = [",".join(f"lo_{l + 1},hi_{l + 1}" for l in range(d))]
    for box in boxes:
        lines.append(",".join(
            f"{v.numerator}/{v.denominator}" for interval in box for v in interval
        ))
    return "\n".join(lines) + "\n"


def boxes_svg(boxes) -> str:
    """SVG of planar boxes, formatted box by box."""
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1" '
        'width="640" height="640">',
        '<rect x="0" y="0" width="1" height="1" fill="#ffffff"/>',
    ]
    for (x_lo, x_hi), (y_lo, y_hi) in boxes:
        parts.append(
            f'<rect x="{float(x_lo):.12g}" y="{1.0 - float(y_hi):.12g}" '
            f'width="{float(x_hi - x_lo):.12g}" height="{float(y_hi - y_lo):.12g}" '
            'fill="#1f3a5f" fill-opacity="0.85"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def tangent_image_boxes(s: Sponge, R, mode, level: int):
    """Exact tangent-image boxes, in word order.

    Keeps the level-``level`` pre-fractal boxes that lie in the tangent
    cube's box and scales each by k_l (x - corner) in Fractions, k_l the
    tangent map's scales and the corner the cube box's lower corner.
    """
    from spongedim import tangent_map

    tmap = tangent_map(s, R, mode)
    cube = cube_box(s, tmap.cube)
    return tuple(
        tuple((k * (lo - c), k * (hi - c))
              for k, (c, _), (lo, hi) in zip(tmap.scales, cube, box))
        for box in prefractal_boxes(s, level)
        if all(clo <= lo and hi <= chi for (clo, chi), (lo, hi) in zip(cube, box))
    )


def tangent_image_columns(s: Sponge, R, mode, level: int):
    """Denominators and whole numerator columns of the tangent image.

    Every word's lattice column over the full word, minus the tangent map's
    shift, the offset of the cube's corner at the cover's resolution.
    """
    from spongedim.cubes import lattice_column
    from spongedim.verify import _tangent_cover

    tmap, choices = _tangent_cover(s, R, mode, level)
    columns, dens = [], []
    for l, (n, k) in enumerate(zip(s.bases, tmap.cube.exponents.k)):
        shift = tmap.offsets[l] * n ** (level - k)
        column = lattice_column(n, [[j[l] for j in c] for c in choices])
        columns.append([v - shift for v in column])
        dens.append(n ** (level - k))
    return tuple(dens), columns


def hat_set_prefractal(s: Sponge, mode, level: int, cap: int = DEFAULT_CAP):
    """Level-``level`` cover of the product tangent set, as Fraction boxes.

    A coordinate whose alphabet is the full digit range contributes the
    single interval [0,1] (its factor is the whole interval); every other
    coordinate contributes its one-dimensional pre-fractal intervals.
    """
    from spongedim import hat_digit_alphabets
    from spongedim.verify import _require_interior

    if level < 0:
        raise ScaleOutOfRange(f"level must be >= 0, got {level}")
    alphabets = hat_digit_alphabets(s, mode)
    _require_interior(s, alphabets)
    lists = []
    total = 1
    for l, alpha in enumerate(alphabets):
        if len(alpha) == s.bases[l]:
            lists.append([(Fraction(0), Fraction(1))])
        else:
            if total * len(alpha) ** min(level, cap.bit_length()) > cap:
                raise EnumerationTooLarge(
                    f"tangent-set cover needs more than {cap} boxes"
                )
            total *= len(alpha) ** level
            lists.append(_digit_intervals(s.bases[l], alpha, level))
    return tuple(itertools.product(*lists))


def tangent_leaf_boxes(s: Sponge, R, mode, level: int):
    """Float image boxes of every length-``level`` word in the tangent cube.

    Enumerates all words over D and keeps those that agree with the tangent
    word on its pinned entries.  Each corner is accumulated position by
    position in the original coordinates, then shifted and scaled by the
    tangent map, which is the float arithmetic the convergence check
    promises for its leaves.
    """
    from spongedim import tangent_map, tangent_word

    word = tangent_word(s, R, mode)
    tmap = tangent_map(s, R, mode)
    k = scale_exponents(s, R).k
    offsets = [float(lo) for lo, _ in cube_box(s, tmap.cube)]
    scales = [float(v) for v in tmap.scales]
    sides = [s.bases[l] ** (k[l] - level) for l in range(s.d)]
    boxes = []
    for w in itertools.product(sorted(s.digits), repeat=level):
        if any(w[t][l] != word[t][l] for l in range(s.d) for t in range(k[l])):
            continue
        lo = [0.0] * s.d
        for t, entry in enumerate(w):
            for l in range(s.d):
                lo[l] = lo[l] + entry[l] / s.bases[l] ** (t + 1)
        box = []
        for l in range(s.d):
            img = (lo[l] - offsets[l]) * scales[l]
            box.append((img, img + sides[l]))
        boxes.append(tuple(box))
    return boxes


def interval_sup_dist(u, v, starts, ends) -> Fraction:
    """sup over x in [u, v] of the distance from x to the union of intervals.

    ``starts`` and ``ends`` list sorted, disjoint intervals.  The distance is
    evaluated in exact rationals straight from its definition, the least
    distance to any one interval, at u, at v and at the middle of every gap
    between consecutive intervals that lies in [u, v].  Between those points
    it is piecewise linear with slope +-1, so its sup is one of them.
    """
    intervals = [(Fraction(a), Fraction(b)) for a, b in zip(starts, ends)]
    u, v = Fraction(u), Fraction(v)

    def dist(x):
        return min(max(a - x, x - b, Fraction(0)) for a, b in intervals)

    points = [u, v] + [
        (b + a) / 2
        for (_, b), (a, _) in zip(intervals, intervals[1:])
        if u <= (b + a) / 2 <= v
    ]
    return max(dist(x) for x in points)


def tangent_distance(s: Sponge, R, mode, level: int) -> float:
    """max(away, toward) of the convergence check, over every leaf box.

    `away` scores each rescaled box by its per-coordinate worst distance to
    the merged product-factor intervals, using the library's one-dimensional
    rule (``_interval_sup_dist``); `toward` takes each corner of the product
    cells and the nearest rescaled box.  No box is skipped, so the result
    checks the branch-and-bound walk that skips them.
    """
    from spongedim import hat_digit_alphabets
    from spongedim.verify import _interval_sup_dist

    boxes = tangent_leaf_boxes(s, R, mode, level)
    refinement = level - scale_exponents(s, R).k[0]
    alphabets = hat_digit_alphabets(s, mode)
    factors = []
    corner_values = []
    for l, n in enumerate(s.bases):
        intervals = alphabet_intervals(n, alphabets[l], refinement)
        merged = []
        for lo, hi in intervals:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        factors.append(([float(a) for a, _ in merged], [float(b) for _, b in merged]))
        corner_values.append(sorted({float(v) for iv in intervals for v in iv}))

    away = 0.0
    for box in boxes:
        total = 0.0
        for (u, v), (starts, ends) in zip(box, factors):
            c = _interval_sup_dist(u, v, starts, ends)
            total += c * c
        away = max(away, total)

    toward = 0.0
    for x in itertools.product(*corner_values):
        nearest = math.inf
        for box in boxes:
            total = 0.0
            for xl, (lo, hi) in zip(x, box):
                c = lo - xl if xl < lo else xl - hi if xl > hi else 0.0
                total += c * c
            nearest = min(nearest, math.sqrt(total))
        toward = max(toward, nearest)
    return max(math.sqrt(away), toward)


def depth_cube_masses(s: Sponge, m: BernoulliMeasure, k: int) -> dict:
    """Mass of every scale-(n_1^-k) cube keyed by its grid coordinate tuple.

    Recurses over word positions, one call per cube, with the exact product
    of the per-position prefix masses accumulated left to right.
    """
    ks = scale_exponents(s, Fraction(1, s.bases[0] ** k)).k
    per_position = []
    for t in range(1, ks[0] + 1):
        m_t = sum(1 for v in ks if v >= t)
        per_position.append([(p, m.prefix_mass(p)) for p in s.level_sets[m_t]])
    out = {}
    grid = [0] * s.d

    def rec(t: int, mass: Fraction) -> None:
        if t == ks[0]:
            out[tuple(grid)] = mass
            return
        saved = tuple(grid)
        for p, w in per_position[t]:
            for l in range(len(p)):
                grid[l] = saved[l] * s.bases[l] + p[l]
            rec(t + 1, mass * w)
            for l in range(s.d):
                grid[l] = saved[l]

    rec(0, Fraction(1))
    return out


def adjacent_pairs(s: Sponge, k: int) -> set:
    """Face-sharing cube pairs at scale n_1^-k, as (lower, upper) grid tuples.

    Takes the cubes from ``depth_cube_masses`` and compares their exact
    rational boxes pairwise with ``_share_face``; quadratic in the cube
    count, so keep it low.
    """
    ks = scale_exponents(s, Fraction(1, s.bases[0] ** k)).k
    m = BernoulliMeasure(s, {t: Fraction(1, len(s.digits)) for t in s.digits})

    def box(g):
        return tuple(
            (Fraction(x, n**kl), Fraction(x + 1, n**kl))
            for x, n, kl in zip(g, s.bases, ks)
        )

    cubes = sorted(depth_cube_masses(s, m, k))
    return {
        (a, b)
        for a, b in itertools.combinations(cubes, 2)
        if _share_face(box(a), box(b))
    }


def adjacent_max_ratio(masses: dict):
    """(pair count, max ratio, witness) over grid tuples one step apart.

    Visits tuples in sorted order and coordinates in order; a pair replaces
    the witness only when its ratio is strictly larger.
    """
    best = None
    witness = None
    pairs = 0
    for g in sorted(masses):
        mg = masses[g]
        for l in range(len(g)):
            nb = g[:l] + (g[l] + 1,) + g[l + 1 :]
            other = masses.get(nb)
            if other is None:
                continue
            pairs += 1
            ratio = mg / other if mg >= other else other / mg
            if best is None or ratio > best:
                best = ratio
                witness = (g, nb)
    return pairs, best, witness


def doubling_report(s: Sponge, m: BernoulliMeasure, max_depth: int):
    """(rows, growth rate, verdict value, window start) by the steps above.

    Each row is (depth, pair count, max ratio, witness), the exact maximum
    rounded to a float; the growth fit and the three-depth window follow the
    rules ``doubling_report`` documents.
    """
    rows = []
    bucket_best = {}
    for k in range(1, max_depth + 1):
        pairs, best, witness = adjacent_max_ratio(depth_cube_masses(s, m, k))
        best = None if best is None else float(best)
        rows.append((k, pairs, best, witness))
        if best is not None:
            v = scale_exponents(s, Fraction(1, s.bases[0] ** k)).k[-1]
            bucket_best[v] = max(bucket_best.get(v, 0.0), best)
    last_bucket = scale_exponents(s, Fraction(1, s.bases[0] ** max_depth)).k[-1]
    points = [
        (float(v), math.log(r))
        for v, r in sorted(bucket_best.items())
        if v < last_bucket and r > 0
    ]
    growth = 1.0
    if len(points) >= 2:
        n = len(points)
        mx = sum(x for x, _ in points) / n
        my = sum(y for _, y in points) / n
        sxx = sum((x - mx) ** 2 for x, _ in points)
        sxy = sum((x - mx) * (y - my) for x, y in points)
        growth = math.exp(sxy / sxx if sxx else 0.0)
    window = None
    for i in range(len(rows) - 2):
        a, b, c = rows[i][2], rows[i + 1][2], rows[i + 2][2]
        if a is not None and b is not None and c is not None:
            if b >= a and c >= b and c > a * (1 + 1e-9):
                window = rows[i][0]
                break
    non_doubling = growth > 1 + 1e-6 and window is not None
    verdict = "NonDoublingCertificate" if non_doubling else "DoublingUpToDepth"
    return rows, growth, verdict, window if non_doubling else None


def log_ratio_extremes(s: Sponge, m: BernoulliMeasure, depth: int) -> dict:
    """{(a, b): (least, largest)} of log mass(Q_R) - log mass(Q_r) over all words,
    for every scale pair (R, r) = (n_1^-a, n_1^-b) with 0 <= a < b <= depth.

    Position t of a word is pinned by the depth-c cube in its first w_c(t)
    coordinates, those l with k_l(c) > t, so the pair's log ratio adds
    log prefix_mass(x[:u]) - log prefix_mass(x[:v]) for the digit x at t,
    with [u, v) = [w_a(t), w_b(t)), and positions choose their digits
    independently: each extreme over all words is the sum over t of the
    extreme over digits for t's coordinate range.  The digit reaching a
    range's extreme is chosen by exact ``Fraction`` comparison; its log and
    the sums over t, read from prefix sums over t per (b, u), are floats, so
    an extreme carries the rounding of about 2 * depth float additions.
    """
    from operator import add, sub

    d, n1 = s.d, s.bases[0]
    ks = [scale_exponents(s, Fraction(1, n1**c)).k for c in range(depth + 1)]
    # per side, table[u][v]: the range [u, v)'s extreme over digits; entries
    # with v < u are summed into prefixes below but never read out
    tables = [
        [
            [math.log(pick(m.prefix_mass(x[:u]) / m.prefix_mass(x[:v]) for x in s.digits))
             for v in range(d + 1)]
            for u in range(d + 1)
        ]
        for pick in (min, max)
    ]
    # w_c(t) = u exactly for bounds[u + 1][c] <= t < bounds[u][c], where
    # bounds[u + 1] reads k_u and bounds[0] is the word length b, set per b
    bounds = [None, *map(list, zip(*ks)), [0] * (depth + 1)]
    out = {}
    for b in range(1, depth + 1):
        bounds[0] = [b] * (depth + 1)
        widths = [u for u in range(d, -1, -1) for _ in range(bounds[u + 1][b], bounds[u][b])]
        sides = []
        for table in tables:
            total = [0.0] * b
            for u in range(d + 1):
                prefix = [0.0, *itertools.accumulate(map(table[u].__getitem__, widths))]
                hi = map(prefix.__getitem__, bounds[u][:b])
                lo = map(prefix.__getitem__, bounds[u + 1][:b])
                total = list(map(add, total, map(sub, hi, lo)))
            sides.append(total)
        out.update(zip([(a, b) for a in range(b)], zip(*sides)))
    return out


def sandwich_worst_slacks(s: Sponge, m: BernoulliMeasure, depth: int):
    """(lower, upper) worst log slacks of the cube sandwich over all words and
    all scale pairs a < b <= depth, from ``log_ratio_extremes``, with the
    constants and exponents of ``scan_cube_ratios``."""
    from spongedim import assouad_dim, lower_dim

    log_nd_d = s.d * math.log(s.bases[-1])
    log_n1 = math.log(s.bases[0])
    dim_lo, dim_hi = lower_dim(s), assouad_dim(s)
    extremes = log_ratio_extremes(s, m, depth).items()
    lower = min(lo + log_nd_d - dim_lo * (b - a) * log_n1 for (a, b), (lo, _) in extremes)
    upper = min(log_nd_d + dim_hi * (b - a) * log_n1 - hi for (a, b), (_, hi) in extremes)
    return lower, upper
