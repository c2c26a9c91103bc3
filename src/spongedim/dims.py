"""Closed-form dimensions of a sponge.

Four quantities are computed.  Assouad and lower dimension come from the
per-level extremal fibre counts and are only valid when the bases strictly
increase; box and Hausdorff dimension come from projection cardinalities and
a bottom-up recursion over prefixes and stay valid for ties in the bases.
A second, independent route to the lower dimension (the primed recursion)
is kept separate from the direct formula so the two can cross-check each
other in tests, and the equal-or-all-distinct dichotomy is decided from the
fibre structure rather than from floating-point comparisons.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .cubes import ScaleLike, admit, as_scale
from .errors import InternalError, NonStrictBases, ScaleOutOfRange
from .measure import _rational_log
from .model import Prefix, Sponge, has_uniform_fibres
from .tolerances import _RECURSION_TOL


def _require_strict(s: Sponge, what: str) -> None:
    if not s.strict_bases:
        raise NonStrictBases(
            f"{what} requires strictly increasing bases, got {s.bases}"
        )


def _branching_dim(s: Sponge, what: str, pick: Callable[..., int]) -> float:
    """log N/log n_1 plus the per-level exponents of the fibre count ``pick``
    takes from each level's (min, max)."""
    _require_strict(s, what)
    value = math.log(len(s.level_sets[1])) / math.log(s.bases[0])
    for l in range(2, s.d + 1):
        value += math.log(pick(s.fibre_count_range(l))) / math.log(s.bases[l - 1])
    return value


def assouad_dim(s: Sponge) -> float:
    """log N/log n_1 plus the per-level maximal branching exponents."""
    return _branching_dim(s, "assouad_dim", max)


def lower_dim(s: Sponge) -> float:
    """Same shape as assouad_dim with minima in place of maxima."""
    return _branching_dim(s, "lower_dim", min)


def box_dim(s: Sponge) -> float:
    """Counting dimension from projection growth; valid for tied bases too."""
    value = math.log(len(s.level_sets[1])) / math.log(s.bases[0])
    for l in range(2, s.d + 1):
        ratio = len(s.level_sets[l]) / len(s.level_sets[l - 1])
        value += math.log(ratio) / math.log(s.bases[l - 1])
    return value


def _level_exponent(s: Sponge, l: int) -> float:
    """log n_l / log n_{l+1} with the last base repeated past the end."""
    nxt = s.bases[l] if l < s.d else s.bases[s.d - 1]
    return math.log(s.bases[l - 1]) / math.log(nxt)


def _z_recursions(s: Sponge) -> tuple[dict[Prefix, float], dict[Prefix, float]]:
    """Evaluate both prefix recursions bottom-up, returning the level-0 maps.

    The unprimed table sums child values raised to the level exponent; the
    primed table takes the global level minimum instead and multiplies by the
    local branching count.  Domination of primed by unprimed is checked at
    every prefix along the way.
    """
    z: dict[Prefix, float] = {p: 1.0 for p in s.level_sets[s.d]}
    zp: dict[Prefix, float] = dict(z)
    for l in range(s.d, 0, -1):
        e = _level_exponent(s, l)
        min_zp = min(zp[q] ** e for q in s.level_sets[l])
        nz: dict[Prefix, float] = {}
        nzp: dict[Prefix, float] = {}
        for p in s.level_sets[l - 1]:
            nz[p] = sum(z[p + (j,)] ** e for j in s.fibre(p))
            nzp[p] = s.fibre_count(p) * min_zp
            if nz[p] < nzp[p] - _RECURSION_TOL:
                raise InternalError(
                    f"primed recursion exceeds unprimed at level {l - 1}, "
                    f"prefix {p}: {nzp[p]} > {nz[p]}"
                )
        z, zp = nz, nzp
    return z, zp


def hausdorff_dim(s: Sponge) -> float:
    """log of the root of the unprimed recursion, in base n_1."""
    z0, _ = _z_recursions(s)
    return math.log(z0[()]) / math.log(s.bases[0])


def lower_via_zprime(s: Sponge) -> float:
    """Independent route to lower_dim through the primed recursion."""
    _require_strict(s, "lower_via_zprime")
    _, zp0 = _z_recursions(s)
    return math.log(zp0[()]) / math.log(s.bases[0])


class Dichotomy(enum.Enum):
    ALL_EQUAL = "AllEqual"
    ALL_DISTINCT = "AllDistinct"


def dichotomy(s: Sponge) -> Dichotomy:
    """All four dimensions coincide exactly when fibres are uniform.

    In the non-uniform case the four values must be pairwise separated;
    that separation is checked, not assumed.
    """
    _require_strict(s, "dichotomy")
    if has_uniform_fibres(s):
        return Dichotomy.ALL_EQUAL
    values = sorted((lower_dim(s), hausdorff_dim(s), box_dim(s), assouad_dim(s)))
    for a, b in zip(values, values[1:]):
        if not b - a > 0:
            raise InternalError(
                f"non-uniform fibres but dimensions {a} and {b} collide"
            )
    return Dichotomy.ALL_DISTINCT


@dataclass(frozen=True)
class DimReport:
    """The four dimension values with validity flags.

    ``assouad``, ``lower``, ``lower_via_zprime`` and ``dichotomy`` are None
    when the bases are not strictly increasing, in which case ``errors`` maps
    each omitted field to the error name explaining why.
    """

    strictness_ok: bool
    assouad: float | None
    lower: float | None
    box: float
    hausdorff: float
    lower_via_zprime: float | None
    dichotomy: Dichotomy | None
    errors: dict[str, str]


def dim_report(s: Sponge) -> DimReport:
    strict = s.strict_bases
    omitted = ("assouad", "lower", "lower_via_zprime", "dichotomy")
    return DimReport(
        strictness_ok=strict,
        assouad=assouad_dim(s) if strict else None,
        lower=lower_dim(s) if strict else None,
        box=box_dim(s),
        hausdorff=hausdorff_dim(s),
        lower_via_zprime=lower_via_zprime(s) if strict else None,
        dichotomy=dichotomy(s) if strict else None,
        errors={} if strict else dict.fromkeys(omitted, "NonStrictBases"),
    )


def lg_family_dims(lam: ScaleLike) -> tuple[float, float, float, float]:
    """(lower, hausdorff, box, assouad) for the three-map planar family.

    The family contracts horizontally by 1/2 and vertically by lam with two
    maps stacked on the right column; for lam strictly below 1/2 the four
    dimensions are pairwise distinct apart from lower = 1, while at
    lam = 1/2 the attractor is self-similar and all four collapse to
    log 3 / log 2.  Assouad and lower therefore jump at the endpoint.
    """
    x = as_scale(lam)
    if not 0 < x <= Fraction(1, 2):
        raise ScaleOutOfRange(f"family parameter must lie in (0, 1/2], got {x}")
    if x == Fraction(1, 2):
        v = math.log(3) / math.log(2)
        return (v, v, v, v)
    log_lam = _rational_log(x).log_value
    lower = 1.0
    hausdorff = math.log(1 + 2 ** (-math.log(2) / log_lam)) / math.log(2)
    box = 1 + math.log(Fraction(3, 2)) / (-log_lam)
    assouad = 1 + math.log(2) / (-log_lam)
    return (lower, hausdorff, box, assouad)


def _lg_family_rows(lo: Fraction, hi: Fraction, step: Fraction) -> Iterator[str]:
    """The lines of ``lg_family_csv``, each formed as it is drawn."""
    if step <= 0:
        raise ScaleOutOfRange(f"step must be positive, got {step}")
    if lo > hi:
        raise ScaleOutOfRange(f"empty parameter range [{lo}, {hi}]")
    rows = (hi - lo) // step + 1
    admit(f"rows from {lo} to {hi} in steps of {step}", [rows])
    for lam in (lo, lo + (rows - 1) * step):  # a grid inside (0, 1/2] at both ends
        lg_family_dims(lam)
    return itertools.chain(["lambda,lower,hausdorff,box,assouad\n"], (
        f"{lam.numerator}/{lam.denominator},{','.join(map(repr, lg_family_dims(lam)))}\n"
        for lam in (lo + k * step for k in range(rows))
    ))


def lg_family_csv(lo: Fraction, hi: Fraction, step: Fraction) -> str:
    """Sweep the family over an exact grid; one CSV row per parameter.

    The rows are admitted (``cubes.admit``) and both grid ends checked before any is built.
    """
    return "".join(_lg_family_rows(lo, hi, step))
