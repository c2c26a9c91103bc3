"""Bernoulli measures: weights, conditionals, cube masses, ball brackets."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import spongedim as sd
import _oracles as oracle
from conftest import random_strict_sponge
from spongedim.measure import EXACT_FACTOR_BUDGET, _concentric_brackets, _log_mass
from spongedim.verify import _tau_point


class TestCoordinateUniform:
    def test_reference_weight_table(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        expected = {
            (0, 0, 0): Fraction(1, 8),
            (0, 0, 3): Fraction(1, 8),
            (0, 1, 2): Fraction(1, 4),
            (1, 0, 2): Fraction(1, 6),
            (1, 1, 0): Fraction(1, 18),
            (1, 1, 1): Fraction(1, 18),
            (1, 1, 2): Fraction(1, 18),
            (1, 2, 0): Fraction(1, 18),
            (1, 2, 2): Fraction(1, 18),
            (1, 2, 3): Fraction(1, 18),
        }
        assert dict(m.weights) == expected
        assert sum(m.weights.values()) == 1

    def test_full_grid_uniform_weights(self, full_grid_234):
        m = sd.coordinate_uniform(full_grid_234)
        assert set(m.weights.values()) == {Fraction(1, 24)}

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_weights_always_sum_to_one(self, seed):
        s = random_strict_sponge(random.Random(seed))
        m = sd.coordinate_uniform(s)
        assert sum(m.weights.values()) == 1
        assert all(w > 0 for w in m.weights.values())


class TestMeasureValidation:
    def test_support_must_match_digit_set(self, carpet_23):
        with pytest.raises(sd.DigitOutOfRange):
            sd.BernoulliMeasure(
                carpet_23, {(0, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}
            )

    def test_weights_must_be_positive(self, carpet_23):
        with pytest.raises(sd.ZeroMeasure):
            sd.BernoulliMeasure(
                carpet_23,
                {(0, 0): Fraction(1, 2), (0, 2): Fraction(1, 2), (1, 1): Fraction(0)},
            )

    def test_huge_decimal_exponent_refused_quickly(self, carpet_24):
        """Weights decode through as_scale, which bounds the exponent first."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            sd.BernoulliMeasure(
                carpet_24,
                {(0, 1): "1e-2000000", (1, 1): Fraction(1, 2), (1, 3): Fraction(1, 2)},
            )
        assert time.perf_counter() - start < 1.0

    def test_weights_must_sum_to_one(self, carpet_23):
        with pytest.raises(sd.SpongeError):
            sd.BernoulliMeasure(
                carpet_23,
                {
                    (0, 0): Fraction(1, 2),
                    (0, 2): Fraction(1, 2),
                    (1, 1): Fraction(1, 2),
                },
            )


class TestConditionals:
    def test_root_conditional(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        assert sd.conditional_prob(m, (), 0) == Fraction(1, 2)

    def test_vanishes_off_support(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        assert sd.conditional_prob(m, (1, 1), 5) == 0

    def test_marginal_with_plain_weights(self, carpet_24):
        m = sd.BernoulliMeasure(
            carpet_24, {t: Fraction(1, 3) for t in carpet_24.digits}
        )
        assert sd.conditional_prob(m, (), 1) == Fraction(2, 3)

    def test_unknown_prefix(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        with pytest.raises(sd.PrefixNotInSponge):
            sd.conditional_prob(m, (0, 2), 0)

    def test_coordinate_uniform_inverts_fibre_counts(self, sponge_234):
        """Conditionals of the canonical measure are 1 over the fibre count."""
        s = sponge_234
        m = sd.coordinate_uniform(s)
        for l in range(s.d):
            prefixes = [()] if l == 0 else s.level_sets[l]
            for p in prefixes:
                expected = Fraction(1, s.fibre_count(p))
                for nxt in range(s.bases[l]):
                    got = sd.conditional_prob(m, p, nxt)
                    if tuple(p) + (nxt,) in set(s.level_sets[l + 1]):
                        assert got == expected
                    else:
                        assert got == 0


class TestCubeMeasure:
    def test_reference_value(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        got = sd.cube_measure(m, [(0, 0, 0), (0, 0, 0)], Fraction(1, 4))
        assert got.exact == Fraction(1, 16)

    def test_unit_scale_is_full_mass(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        assert sd.cube_measure(m, [], 1).exact == 1

    def test_word_too_short(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        with pytest.raises(sd.WordTooShort):
            sd.cube_measure(m, [(0, 0, 0)], Fraction(1, 8))

    def test_matches_cylinder_enumeration(self, sponge_234, carpet_24):
        rng = random.Random(5)
        for s in (sponge_234, carpet_24):
            m = sd.coordinate_uniform(s)
            for _ in range(8):
                a = rng.randint(0, 5)
                r = Fraction(1, s.bases[0] ** a)
                word = tuple(rng.choice(s.digits) for _ in range(a))
                got = sd.cube_measure(m, word, r).exact
                assert got == oracle.brute_cube_measure(m, word, r)

    def test_scale_r_cubes_partition_unit_mass(self, sponge_234):
        s = sponge_234
        m = sd.coordinate_uniform(s)
        r = Fraction(1, 8)
        trivial = sd.approximate_cube(s, [], 1)
        total = Fraction(0)
        k = sd.scale_exponents(s, r).k
        for c in sd.subcubes(s, trivial, r):
            word = oracle.word_from_signature(s, c.constraints, k)
            total += sd.cube_measure(m, word, r).exact
        assert total == 1

    def test_refinement_additivity(self, carpet_24):
        s = carpet_24
        m = sd.coordinate_uniform(s)
        big_r, small_r = Fraction(1, 4), Fraction(1, 16)
        word = ((1, 1), (0, 1), (1, 3), (1, 1))
        parent = sd.approximate_cube(s, word, big_r)
        parent_mass = sd.cube_measure(m, word, big_r).exact
        k = sd.scale_exponents(s, small_r).k
        pieces = Fraction(0)
        for c in sd.subcubes(s, parent, small_r):
            w = oracle.word_from_signature(s, c.constraints, k)
            pieces += sd.cube_measure(m, w, small_r).exact
        assert pieces == parent_mass

    def test_single_track_ratio_identity(self, carpet_24):
        """Masses of cubes differing only in the wide-coordinate tail.

        Two words that agree except on the first-coordinate digits of the
        tail positions have cube-mass ratio equal to the marginal ratio
        raised to the number of differing positions.
        """
        s = carpet_24
        rng = random.Random(17)
        raw = [Fraction(rng.randint(1, 9)) for _ in range(3)]
        total = sum(raw)
        weights = {t: w / total for t, w in zip(s.digits, raw)}
        m = sd.BernoulliMeasure(s, weights)
        p0 = weights[(0, 1)]
        p1 = weights[(1, 1)] + weights[(1, 3)]
        k = 5
        R = Fraction(1, 4**k)
        head = tuple((1, 1) for _ in range(k + 2))
        tail_a = tuple((1, 1) for _ in range(k - 2))
        tail_b = tuple((0, 1) for _ in range(k - 2))
        mass_a = sd.cube_measure(m, head + tail_a, R).exact
        mass_b = sd.cube_measure(m, head + tail_b, R).exact
        assert mass_a / mass_b == (p1 / p0) ** (k - 2)

    def test_log_value_consistent_with_exact(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        got = sd.cube_measure(m, [(1, 1, 0)] * 4, Fraction(1, 16))
        assert got.exact is not None
        assert got.log_value == pytest.approx(
            math.log(got.exact), rel=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**5), a=st.integers(0, 4), extra=st.integers(0, 2))
    def test_log_value_is_the_ordered_factor_sum(self, seed, a, extra):
        """The table's logs add up as the Fraction factors' logs do, bit for bit."""
        rng = random.Random(seed)
        s = random_strict_sponge(rng, max_base=5, max_digits=6)
        m = _random_measure(rng, s)
        q = rng.randint(1, s.bases[0] ** a)
        r = Fraction(rng.randint(1, q), q)
        k1 = sd.scale_exponents(s, r).k[0]
        word = tuple(rng.choice(s.digits) for _ in range(k1 + extra))
        factors = oracle.cube_factors(m, word, r)
        got = sd.cube_measure(m, word, r)
        assert got.log_value == oracle.log_sum(factors)
        assert got.exact == oracle.brute_cube_measure(m, word, r)
        assert _log_mass(m, word, sd.scale_exponents(s, r).k) == got.log_value

    def test_factor_below_float_range_has_a_finite_log(self, carpet_24):
        tiny = Fraction(1, 10**400)
        m = sd.BernoulliMeasure(
            carpet_24,
            {(0, 1): tiny, (1, 1): Fraction(1, 2), (1, 3): Fraction(1, 2) - tiny},
        )
        got = sd.cube_measure(m, [(0, 1), (0, 1)], Fraction(1, 4))
        assert got.exact == tiny**2
        assert got.log_value == pytest.approx(-800 * math.log(10), rel=1e-12)

    def test_deep_scan_leaves_log_only(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        word = [(1, 1, 0)] * 400
        r = Fraction(1, 2**400)
        assert sum(sd.scale_exponents(sponge_234, r).k) > EXACT_FACTOR_BUDGET
        got = sd.cube_measure(m, word, r)
        assert got.exact is None
        assert got.log_value < -100


class TestBallBrackets:
    def test_covering_ball(self, carpet_23):
        m = sd.coordinate_uniform(carpet_23)
        lo, up = sd.ball_measure_bounds(m, (Fraction(1, 2), Fraction(1, 2)), 2, 3)
        assert lo.exact == 1
        assert up.exact == 1

    def test_huge_depth_costs_only_the_levels_reached(self, carpet_24):
        m = sd.coordinate_uniform(carpet_24)
        start = time.perf_counter()
        lo, up = sd.ball_measure_bounds(m, (Fraction(1, 2), Fraction(1, 2)), 2, 10**9)
        assert time.perf_counter() - start < 0.5
        assert lo.exact == up.exact == 1

    def test_degenerate_ball(self, carpet_23):
        m = sd.coordinate_uniform(carpet_23)
        lo, up = sd.ball_measure_bounds(m, (Fraction(0), Fraction(0)), 0, 3)
        assert lo.exact == 0
        assert up.exact == Fraction(1, 64)

    def test_brackets_tighten_with_depth(self, carpet_vssc):
        m = sd.coordinate_uniform(carpet_vssc)
        center = (Fraction(0), Fraction(0))
        radius = Fraction(1, 8)
        prev_lo, prev_up = None, None
        for depth in (2, 3, 4, 5):
            lo, up = sd.ball_measure_bounds(m, center, radius, depth)
            assert lo.exact <= up.exact
            if prev_lo is not None:
                assert lo.exact >= prev_lo
                assert up.exact <= prev_up
            prev_lo, prev_up = lo.exact, up.exact

    def test_bracket_encloses_reference_mass(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        center = (Fraction(0), Fraction(0), Fraction(0))
        lo, up = sd.ball_measure_bounds(m, center, Fraction(1, 8), 4)
        assert 0 < lo.exact <= up.exact < 1

    def test_deep_point_mass_has_a_finite_log(self, carpet_24):
        """No deep stack at depth 1500; a mass below float range keeps its log."""
        m = sd.coordinate_uniform(carpet_24)
        center = (Fraction(1, 3), Fraction(1, 3))
        lo, up = sd.ball_measure_bounds(m, center, 0, 1500)
        # the only cylinders through the point alternate (0,1) and (1,1)
        assert up.exact == Fraction(1, 2**2250)
        assert float(up.exact) == 0.0
        assert up.log_value == pytest.approx(-2250 * math.log(2), rel=1e-12)
        assert lo.exact == 0 and lo.log_value == -math.inf

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**5), depth=st.integers(0, 4))
    def test_integer_brackets_equal_fraction_oracle(self, seed, depth):
        """Lattice-integer brackets equal the Fraction walk's, exact and log."""
        rng = random.Random(seed)
        s = random_strict_sponge(rng, max_base=5, max_digits=6)
        m = _random_measure(rng, s)
        if rng.random() < 0.5:
            # lattice points make the inside/outside comparisons tie
            j = rng.randint(0, 3)
            center = tuple(Fraction(rng.randint(0, n**j), n**j) for n in s.bases)
        else:
            center = tuple(
                Fraction(rng.randint(-3, 15), rng.randint(1, 12)) for _ in s.bases
            )
        radius = rng.choice(
            [0, Fraction(1, s.bases[0] ** rng.randint(0, 3)),
             Fraction(rng.randint(1, 12), rng.randint(1, 24))]
        )
        got = sd.ball_measure_bounds(m, center, radius, depth)
        assert got == oracle.ball_measure_bounds(m, center, radius, depth)

    def test_far_corner_on_the_sphere_counts_inside(self):
        """Sides 1/3 and 1/4 put a far corner at distance exactly 5/12."""
        s = sd.validate_sponge((3, 4), [(i, j) for i in range(3) for j in range(4)])
        m = sd.coordinate_uniform(s)
        center = (Fraction(1, 3), Fraction(1, 4))
        for depth in (1, 2):
            got = sd.ball_measure_bounds(m, center, Fraction(5, 12), depth)
            assert got == oracle.ball_measure_bounds(m, center, Fraction(5, 12), depth)
        # the four level-1 boxes at the centre lie in the closed ball
        assert got[0].exact >= Fraction(4, 12)

    def test_scan_depth_brackets_equal_fraction_oracle(self, carpet_vssc):
        """The brackets ball-scan draws, at its depths, plus closed-ball ties
        at levels 8-12: each level's constants come from the one before, to
        depth 15 and, last, to depth 240."""
        m = sd.coordinate_uniform(carpet_vssc)
        rng = random.Random(18)
        cases = []
        for _ in range(60):
            a = rng.randrange(0, 11)
            b = rng.randrange(a + 1, 12)
            word = [rng.choice(carpet_vssc.digits) for _ in range(12)]
            center = _tau_point(carpet_vssc, word, rng.choice(carpet_vssc.digits))
            cases += [(center, Fraction(1, 2 * 3**a), b + 3),
                      (center, Fraction(1, 2 * 3**b), b + 3)]
        # a level-L box's far corner at exactly 5/(3 * 3^L) = 5 eps from the
        # centre, (dx, dy) = (3 eps, 4 eps): a closed-ball tie at levels 8-12
        for level in range(8, 13):
            word = [rng.choice(carpet_vssc.digits) for _ in range(level)]
            x, y = _tau_point(carpet_vssc, word, (0, 0))
            center = (x, y + Fraction(1, 4**level) - Fraction(4, 3 ** (level + 1)))
            cases.append((center, Fraction(5, 3 ** (level + 1)), level + 3))
        cases.append((cases[0][0], 0, 15))
        # corners over 3^240 and 4^240: the integers are far past 2^53
        deep = [rng.choice(carpet_vssc.digits) for _ in range(240)]
        center = _tau_point(carpet_vssc, deep, carpet_vssc.digits[1])
        cases.append((center, Fraction(1, 2 * 3**236), 240))
        for center, radius, depth in cases:
            got = sd.ball_measure_bounds(m, center, radius, depth)
            assert got == oracle.ball_measure_bounds(m, center, radius, depth)
        assert cases[-1][2] > 200 and got[0].exact > 0

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**5), depth=st.integers(0, 5))
    def test_concentric_walk_equals_fraction_oracle(self, seed, depth):
        """One walk for 1-3 radii, 0 and repeats among them, gives each radius
        the Fraction walk's brackets: shared floats, per-radius quotients past
        the float range and exact ties alike."""
        rng = random.Random(seed)
        s = random_strict_sponge(rng, max_base=5, max_digits=6)
        m = _random_measure(rng, s)
        kind = rng.randrange(4)
        if kind == 0:
            # lattice points make the inside/outside comparisons tie
            j = rng.randint(0, 3)
            center = tuple(Fraction(rng.randint(0, n**j), n**j) for n in s.bases)
        elif kind == 1:
            center = tuple(
                Fraction(rng.randint(-3, 15), rng.randint(1, 12)) for _ in s.bases
            )
        elif kind == 2:
            # denominators past 2^1022: no node distance is a normal float
            center = tuple(
                Fraction(rng.randint(-2**1040, 2**1041), rng.randint(2**1030, 2**1040))
                for _ in s.bases
            )
        else:
            # numerators past 2^1024: the root's offsets convert to no float
            center = (Fraction(rng.randint(2**1024, 2**1030), rng.randint(1, 9)),
                      *(Fraction(rng.randint(0, 9), 9) for _ in s.bases[1:]))
        pool = [
            0,
            Fraction(1, s.bases[0] ** rng.randint(0, 3)),
            Fraction(rng.randint(1, 12), rng.randint(1, 24)),
            Fraction(rng.randint(1, 9), 2**600),  # R^2 below the float range
            Fraction(2**600, rng.randint(1, 9)),  # R^2 above it
        ]
        radii = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            radii.append(radii[0])
        got = _concentric_brackets(m, center, radii, depth)
        assert got == [oracle.ball_measure_bounds(m, center, r, depth) for r in radii]

    def test_distance_over_radius_past_the_float_range(self, carpet_vssc):
        """A depth-700 bracket of radius 1/(2 * 3^660) about a scan centre: at
        the shallow levels near/R and far/R overflow a float, at the deep ones
        only the per-radius quotients are in range."""
        m = sd.coordinate_uniform(carpet_vssc)
        rng = random.Random(700)
        word = [rng.choice(carpet_vssc.digits) for _ in range(700)]
        center = _tau_point(carpet_vssc, word, carpet_vssc.digits[1])
        radius = Fraction(1, 2 * 3**660)
        got = sd.ball_measure_bounds(m, center, radius, 700)
        assert got == oracle.ball_measure_bounds(m, center, radius, 700)
        assert 0 < got[0].exact <= got[1].exact

    def test_repeated_radius_costs_no_node(self, carpet_vssc, monkeypatch):
        """The node guard counts the union of the radii's walks: the 29-node
        walk below, asked for twice in one call, still visits 29 nodes."""
        m = sd.coordinate_uniform(carpet_vssc)
        word = [(2, 3) if c == "1" else (0, 0) for c in "000000010110"]
        center = _tau_point(carpet_vssc, word, (0, 0))
        radius = Fraction(1, 2 * 3**6)
        monkeypatch.setattr("spongedim.measure.DEFAULT_CAP", 29)
        once = sd.ball_measure_bounds(m, center, radius, 14)
        assert _concentric_brackets(m, center, (radius, radius), 14) == [once, once]

    def test_sphere_ties_inside_the_float_cuts(self, carpet_vssc):
        """Far corners exactly on the sphere, (dx, dy) = (3k eps, 4k eps) with
        eps = 1/3^(L+1), at levels 1-60 (shared floats) and 680 (per-radius
        quotients): the float sums land within the filter's margin of R^2,
        so the exact test decides them."""
        m = sd.coordinate_uniform(carpet_vssc)

        def tie(rng, level, k):
            word = [rng.choice(carpet_vssc.digits) for _ in range(level)]
            x, y = _tau_point(carpet_vssc, word, (0, 0))
            center = (x, y + Fraction(1, 4**level) - Fraction(4 * k, 3 ** (level + 1)))
            return center, Fraction(5 * k, 3 ** (level + 1)), level + 1

        rng = random.Random(25)
        cases = [tie(rng, level, k) for level in range(1, 61) for k in (1, 2, 3)]
        deep = random.Random(0)
        cases += [tie(deep, 680, 2), tie(deep, 680, 3)]
        for center, radius, depth in cases:
            got = sd.ball_measure_bounds(m, center, radius, depth)
            assert got == oracle.ball_measure_bounds(m, center, radius, depth)

    def test_node_guard_fires_one_node_past_the_walk(self, carpet_vssc, monkeypatch):
        """A scan-shaped bracket visits 29 nodes: a cap of 29 lets it finish,
        a cap of 28 stops it at the 29th."""
        m = sd.coordinate_uniform(carpet_vssc)
        word = [(2, 3) if c == "1" else (0, 0) for c in "000000010110"]
        center = _tau_point(carpet_vssc, word, (0, 0))
        args = (m, center, Fraction(1, 2 * 3**6), 14)
        monkeypatch.setattr("spongedim.measure.DEFAULT_CAP", 29)
        assert sd.ball_measure_bounds(*args) == oracle.ball_measure_bounds(*args)
        monkeypatch.setattr("spongedim.measure.DEFAULT_CAP", 28)
        with pytest.raises(
            sd.EnumerationTooLarge, match="^ball bracket enumeration exceeded cap 28$"
        ):
            sd.ball_measure_bounds(*args)


def _random_measure(rng: random.Random, s: sd.Sponge) -> sd.BernoulliMeasure:
    ints = [rng.randint(1, 20) for _ in s.digits]
    return sd.BernoulliMeasure(
        s, {t: Fraction(a, sum(ints)) for t, a in zip(s.digits, ints)}
    )


class TestWeightFiles:
    def test_round_trip(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        back = sd.measure_from_json(sponge_234, sd.weights_to_json(m))
        assert back.weights == m.weights

    def test_sum_enforced(self, carpet_23):
        with pytest.raises(sd.SpongeError):
            sd.measure_from_json(
                carpet_23, '{"0,0": "1/2", "0,2": "1/4", "1,1": "1/3"}'
            )

    def test_decimal_weights_accepted(self, carpet_23):
        m = sd.measure_from_json(
            carpet_23, '{"0,0": "0.5", "0,2": "0.25", "1,1": "0.25"}'
        )
        assert m.weights[(0, 0)] == Fraction(1, 2)

    def test_invalid_json_reported(self, carpet_23):
        with pytest.raises(sd.SpongeFileError, match="line"):
            sd.measure_from_json(carpet_23, "{oops")


class TestWeightGrid:
    def test_simplex_count_for_three_digits(self, carpet_24):
        vectors = list(sd.positive_weight_grid(carpet_24, Fraction(1, 8)))
        assert len(vectors) == 21  # compositions of 8 into 3 positive parts
        for m in vectors:
            assert sum(m.weights.values()) == 1
            assert all(w >= Fraction(1, 8) for w in m.weights.values())

    def test_tightest_grid_is_uniform(self, carpet_24):
        vectors = list(sd.positive_weight_grid(carpet_24, Fraction(1, 3)))
        assert len(vectors) == 1
        assert set(vectors[0].weights.values()) == {Fraction(1, 3)}

    def test_step_must_be_unit_fraction(self, carpet_24):
        with pytest.raises(sd.ScaleOutOfRange):
            list(sd.positive_weight_grid(carpet_24, Fraction(2, 5)))

    def test_step_must_leave_room(self, carpet_24):
        with pytest.raises(sd.ScaleOutOfRange):
            list(sd.positive_weight_grid(carpet_24, Fraction(1, 2)))

    def test_deterministic_order(self, carpet_24):
        first = [m.weights for m in sd.positive_weight_grid(carpet_24, Fraction(1, 8))]
        second = [m.weights for m in sd.positive_weight_grid(carpet_24, Fraction(1, 8))]
        assert first == second

    def test_lexicographic_compositions(self, sponge_234):
        digits = sorted(sponge_234.digits)
        got = [
            tuple(m.weights[t] * 12 for t in digits)
            for m in sd.positive_weight_grid(sponge_234, Fraction(1, 12))
        ]
        expected = [
            c for c in itertools.product(range(1, 4), repeat=10) if sum(c) == 12
        ]
        assert got == expected
