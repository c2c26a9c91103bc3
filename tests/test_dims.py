"""Closed-form dimension values, the recursion cross-check, and the family sweep."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import spongedim as sd
import _oracles as oracle
from conftest import random_strict_sponge

LOG2, LOG3, LOG4, LOG5 = (math.log(n) for n in (2, 3, 4, 5))

# closed forms for the ten-digit (2, 3, 4) sponge
ASSOUAD_234 = 2 + LOG3 / LOG4
LOWER_234 = 1 + LOG2 / LOG3
BOX_234 = 1 + math.log(2.5) / LOG3 + LOG2 / LOG4
HAUSDORFF_234 = math.log2(
    (2 ** (LOG3 / LOG4) + 1) ** (LOG2 / LOG3)
    + (2 * 3 ** (LOG3 / LOG4) + 1) ** (LOG2 / LOG3)
)


class TestReferenceSponge:
    def test_assouad(self, sponge_234):
        assert sd.assouad_dim(sponge_234) == pytest.approx(ASSOUAD_234, abs=1e-9)

    def test_lower(self, sponge_234):
        assert sd.lower_dim(sponge_234) == pytest.approx(LOWER_234, abs=1e-9)

    def test_box(self, sponge_234):
        assert sd.box_dim(sponge_234) == pytest.approx(BOX_234, abs=1e-9)

    def test_hausdorff(self, sponge_234):
        assert sd.hausdorff_dim(sponge_234) == pytest.approx(HAUSDORFF_234, abs=1e-9)

    def test_lower_recursion_agrees(self, sponge_234):
        assert sd.lower_via_zprime(sponge_234) == pytest.approx(
            sd.lower_dim(sponge_234), abs=1e-12
        )

    def test_all_distinct(self, sponge_234):
        assert sd.dichotomy(sponge_234) is sd.Dichotomy.ALL_DISTINCT
        values = [
            sd.lower_dim(sponge_234),
            sd.hausdorff_dim(sponge_234),
            sd.box_dim(sponge_234),
            sd.assouad_dim(sponge_234),
        ]
        assert values == sorted(values)
        for a, b in zip(values, values[1:]):
            assert b - a > 1e-6


class TestFullGrid:
    def test_everything_equals_ambient_dimension(self, full_grid_234):
        for fn in (sd.assouad_dim, sd.lower_dim, sd.box_dim, sd.hausdorff_dim,
                   sd.lower_via_zprime):
            assert fn(full_grid_234) == pytest.approx(3.0, abs=1e-9)
        assert sd.dichotomy(full_grid_234) is sd.Dichotomy.ALL_EQUAL


class TestSmallCarpet:
    """Planar case where every value is computable by hand."""

    def test_assouad(self, carpet_23):
        assert sd.assouad_dim(carpet_23) == pytest.approx(1 + LOG2 / LOG3, abs=1e-9)

    def test_lower(self, carpet_23):
        assert sd.lower_dim(carpet_23) == pytest.approx(1.0, abs=1e-9)

    def test_hausdorff_matches_column_formula(self, carpet_23):
        # sum over column counts t_j of t_j^(log n1/log n2), log base n1
        expected = math.log2(2 ** (LOG2 / LOG3) + 1)
        assert sd.hausdorff_dim(carpet_23) == pytest.approx(expected, abs=1e-9)

    def test_lower_recursion(self, carpet_23):
        assert sd.lower_via_zprime(carpet_23) == pytest.approx(1.0, abs=1e-12)


class TestRepeatedBases:
    def test_box_still_defined(self, sponge_344):
        expected = LOG2 / LOG3 + LOG5 / LOG4
        assert sd.box_dim(sponge_344) == pytest.approx(expected, abs=1e-9)

    def test_hausdorff_still_defined(self, sponge_344):
        value = sd.hausdorff_dim(sponge_344)
        assert 0 < value <= 3

    def test_extremal_formulas_refused(self, sponge_344):
        for fn in (sd.assouad_dim, sd.lower_dim, sd.lower_via_zprime, sd.dichotomy):
            with pytest.raises(sd.NonStrictBases):
                fn(sponge_344)

    def test_report_carries_errors(self, sponge_344):
        rep = sd.dim_report(sponge_344)
        assert not rep.strictness_ok
        assert rep.assouad is None
        assert rep.lower is None
        assert "NonStrictBases" in rep.errors.values()
        assert rep.box == pytest.approx(LOG2 / LOG3 + LOG5 / LOG4, abs=1e-9)


class TestListingOrderInvariance:
    def test_shuffled_digits_same_values(self, sponge_234):
        rng = random.Random(11)
        digits = list(sponge_234.digits)
        rng.shuffle(digits)
        other = sd.validate_sponge(sponge_234.bases, digits)
        assert sd.assouad_dim(other) == sd.assouad_dim(sponge_234)
        assert sd.lower_dim(other) == sd.lower_dim(sponge_234)
        assert sd.hausdorff_dim(other) == sd.hausdorff_dim(sponge_234)


class TestOrderingChain:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_chain_and_dichotomy(self, seed):
        s = random_strict_sponge(random.Random(seed))
        lo = sd.lower_dim(s)
        h = sd.hausdorff_dim(s)
        b = sd.box_dim(s)
        a = sd.assouad_dim(s)
        assert lo <= h + 1e-12
        assert h <= b + 1e-12
        assert b <= a + 1e-12
        assert sd.lower_via_zprime(s) == pytest.approx(lo, abs=1e-12)
        spread = a - lo
        if sd.has_uniform_fibres(s):
            assert spread < 1e-9
            assert sd.dichotomy(s) is sd.Dichotomy.ALL_EQUAL
        else:
            assert sd.dichotomy(s) is sd.Dichotomy.ALL_DISTINCT
            assert b < a - 1e-12
            assert lo < h - 1e-12


class TestLedrappierYoungOracle:
    """hausdorff_dim is the largest Ledrappier-Young dimension of a Bernoulli measure."""

    @staticmethod
    def _check(s, rng, draws):
        target = sd.hausdorff_dim(s)
        best = oracle.ledrappier_young_dim(s, oracle.full_dimension_weights(s))
        assert abs(best - target) <= 1e-12
        for _ in range(draws):
            ints = [rng.randint(1, 50) for _ in s.digits]
            weights = {t: a / sum(ints) for t, a in zip(s.digits, ints)}
            assert oracle.ledrappier_young_dim(s, weights) <= target + 1e-12

    @pytest.mark.parametrize(
        "name", ["sponge_234", "carpet_24", "carpet_vssc_34", "sponge_344"]
    )
    def test_sample_specs(self, spec_dir, name):
        self._check(sd.load_sponge(spec_dir / f"{name}.json"), random.Random(name), 200)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**5))
    def test_random_strict_sponges(self, seed):
        rng = random.Random(seed)
        self._check(random_strict_sponge(rng), rng, 20)


class TestLambdaFamily:
    def test_collapse_point(self):
        vals = sd.lg_family_dims(Fraction(1, 2))
        for v in vals:
            assert v == pytest.approx(math.log2(3), abs=1e-12)

    def test_quarter(self):
        lower, hausdorff, box, assouad = sd.lg_family_dims(Fraction(1, 4))
        assert lower == pytest.approx(1.0, abs=1e-12)
        assert assouad == pytest.approx(1.5, abs=1e-12)
        assert box == pytest.approx(1 + math.log(1.5) / LOG4, abs=1e-12)
        assert hausdorff == pytest.approx(
            math.log2(1 + 2 ** (-LOG2 / math.log(0.25))), abs=1e-9
        )

    def test_discontinuity(self):
        near = sd.lg_family_dims(Fraction(1, 2) - Fraction(1, 10**6))
        assert near[3] > 1.99
        at = sd.lg_family_dims(Fraction(1, 2))
        assert at[3] == pytest.approx(math.log2(3), abs=1e-12)

    def test_domain(self):
        for bad in (0, Fraction(6, 10), 1, -Fraction(1, 4)):
            with pytest.raises(sd.ScaleOutOfRange):
                sd.lg_family_dims(bad)

    def test_huge_decimal_exponent_refused_quickly(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            sd.lg_family_dims("1e-3000000")
        assert time.perf_counter() - start < 1.0

    def test_parameter_below_float_range(self):
        tiny = sd.lg_family_dims(Fraction(1, 10**400))
        assert tiny[3] == pytest.approx(1 + LOG2 / (400 * math.log(10)), rel=1e-12)

    def test_csv_sweep(self):
        text = sd.lg_family_csv(Fraction(1, 10), Fraction(1, 2), Fraction(1, 10))
        lines = text.strip().splitlines()
        assert lines[0] == "lambda,lower,hausdorff,box,assouad"
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert last[0] == "1/2"
        assert float(last[4]) == pytest.approx(math.log2(3), abs=1e-9)


class TestReportSerialization:
    def test_fixed_key_order(self, sponge_234):
        text = sd.report_to_json(sd.dim_report(sponge_234))
        keys = [
            line.split('"')[1]
            for line in text.splitlines()
            if line.strip().startswith('"')
        ]
        assert keys == [
            "schema_version",
            "strictness_ok",
            "assouad",
            "lower",
            "box",
            "hausdorff",
            "lower_via_zprime",
            "dichotomy",
            "errors",
        ]


class TestInvariantChecks:
    """Failed invariants raise InternalError, which `python -O` keeps."""

    def test_colliding_dimensions(self, sponge_234, monkeypatch):
        from spongedim import dims

        monkeypatch.setattr(dims, "lower_dim", dims.hausdorff_dim)
        with pytest.raises(sd.InternalError):
            sd.dichotomy(sponge_234)

    def test_primed_recursion_above_unprimed(self, sponge_234, monkeypatch):
        from spongedim import dims

        monkeypatch.setattr(dims, "_RECURSION_TOL", -math.inf)
        with pytest.raises(sd.InternalError):
            sd.hausdorff_dim(sponge_234)
