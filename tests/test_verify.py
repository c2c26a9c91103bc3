"""Scans, doubling detection, tangent construction, and the report emitter."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import spongedim as sd
import spongedim.verify as verify
import _oracles as oracle
from conftest import random_strict_sponge
from spongedim.verify import (
    Mode,
    _DepthPlan,
    _interval_sup_bound,
    _interval_sup_dist,
    _tau_point,
    report_to_json,
    scan_samples_csv,
)


class TestCubeRatioScan:
    def test_reference_scan_is_clean(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        rep = sd.scan_cube_ratios(sponge_234, m, 200, 7, depth=30)
        assert rep.samples == 200
        assert rep.violations == ()
        assert rep.worst_lower_slack >= 0
        assert rep.worst_upper_slack >= 0
        assert rep.coordinate_uniform_measure

    def test_constants_bracket_unity(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        rep = sd.scan_cube_ratios(sponge_234, m, 10, 1, depth=10)
        c0, c1 = rep.constants_used
        assert c0 <= 1 <= c1
        assert c0 == pytest.approx(4.0**-3)
        assert c1 == pytest.approx(4.0**3)

    def test_deterministic_given_seed(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        a = report_to_json(sd.scan_cube_ratios(sponge_234, m, 50, 123))
        b = report_to_json(sd.scan_cube_ratios(sponge_234, m, 50, 123))
        assert a == b
        c = report_to_json(sd.scan_cube_ratios(sponge_234, m, 50, 124))
        assert a != c

    def test_flat_weights_are_flagged(self, sponge_234):
        m = sd.BernoulliMeasure(
            sponge_234, {t: Fraction(1, 10) for t in sponge_234.digits}
        )
        rep = sd.scan_cube_ratios(sponge_234, m, 50, 7, depth=20)
        assert not rep.coordinate_uniform_measure

    def test_repeated_bases_refused(self, sponge_344):
        m = sd.coordinate_uniform(sponge_344)
        with pytest.raises(sd.NonStrictBases):
            sd.scan_cube_ratios(sponge_344, m, 10, 1)

    def test_sample_rows_exported(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        rep = sd.scan_cube_ratios(sponge_234, m, 25, 9, depth=12)
        csv = scan_samples_csv(rep)
        lines = csv.strip().splitlines()
        assert lines[0] == "word,r,R,ratio,lower_bound,upper_bound"
        assert len(lines) == 26

    @pytest.mark.parametrize(
        "name, seed, samples, depth",
        [("sponge_234", 1, 30, 40), ("sponge_234", 2, 6, 300),
         ("carpet_24", 3, 30, 40), ("carpet_vssc", 4, 20, 60)],
    )
    def test_matches_fraction_oracle(self, request, name, seed, samples, depth):
        """Reports equal, by repr, the scan over Fraction conditional factors."""
        s = request.getfixturevalue(name)
        grid_vector = next(sd.positive_weight_grid(s, Fraction(1, len(s.digits) + 2)))
        for m in (sd.coordinate_uniform(s), grid_vector):
            got = sd.scan_cube_ratios(s, m, samples, seed, depth)
            assert repr(got) == repr(oracle.scan_cube_ratios(s, m, samples, seed, depth))


class TestBallRatioScan:
    def test_separated_carpet_is_clean(self, carpet_vssc):
        rep = sd.scan_ball_ratios_vssc(carpet_vssc, 60, 11, depth=7)
        assert rep.violations == ()
        assert rep.worst_lower_slack >= 0
        assert rep.worst_upper_slack >= 0

    def test_centres_are_exact_word_images(self, carpet_vssc, sponge_234):
        rng = random.Random(8)
        for s in (carpet_vssc, sponge_234):
            for depth in (0, 1, 5, 12):
                prefix = [rng.choice(s.digits) for _ in range(depth)]
                tail = rng.choice(s.digits)
                expected = tuple(
                    sum(Fraction(t[l], n ** (i + 1)) for i, t in enumerate(prefix))
                    + Fraction(tail[l], n**depth * (n - 1))
                    for l, n in enumerate(s.bases)
                )
                assert _tau_point(s, prefix, tail) == expected

    def test_separation_required(self, sponge_234):
        with pytest.raises(sd.VsscNotSatisfied):
            sd.scan_ball_ratios_vssc(sponge_234, 10, 1)

    def test_constants_bracket_unity(self, carpet_vssc):
        rep = sd.scan_ball_ratios_vssc(carpet_vssc, 10, 3, depth=5)
        c0, c1 = rep.constants_used
        assert c0 <= 1 <= c1
        # C1 = n2^d (2 (n1 + n2) n1^2)^dim_A with n = (3, 4)
        dim_a = sd.assouad_dim(carpet_vssc)
        assert c1 == pytest.approx(16 * (2 * 7 * 9) ** dim_a)
        dim_l = sd.lower_dim(carpet_vssc)
        assert c0 == pytest.approx((1 / 16) * (2 * 7 * 9) ** -dim_l)

    def test_deterministic(self, carpet_vssc):
        a = report_to_json(sd.scan_ball_ratios_vssc(carpet_vssc, 20, 5, depth=5))
        b = report_to_json(sd.scan_ball_ratios_vssc(carpet_vssc, 20, 5, depth=5))
        assert a == b


class TestDoubling:
    def test_flat_weights_blow_up_geometrically(self, carpet_24):
        m = sd.BernoulliMeasure(
            carpet_24, {t: Fraction(1, 3) for t in carpet_24.digits}
        )
        rep = sd.doubling_report(carpet_24, m, 11)
        assert rep.verdict is sd.DoublingVerdict.NON_DOUBLING
        assert rep.growth_rate == pytest.approx(2.0, abs=1e-9)

    def test_canonical_measure_also_fails(self, carpet_24):
        m = sd.coordinate_uniform(carpet_24)
        rep = sd.doubling_report(carpet_24, m, 11)
        assert rep.verdict is sd.DoublingVerdict.NON_DOUBLING
        assert rep.growth_rate > 1 + 1e-6

    def test_max_ratios_match_pairwise_enumeration(self, carpet_24):
        """Exhaustive box-adjacency search reproduces the per-depth maxima."""
        m = sd.BernoulliMeasure(
            carpet_24, {t: Fraction(1, 3) for t in carpet_24.digits}
        )
        rep = sd.doubling_report(carpet_24, m, 5)
        rows = {row.depth: row for row in rep.per_depth}
        for depth in (2, 3, 4, 5):
            expected = oracle.brute_adjacent_max_ratio(carpet_24, m, depth)
            row = rows[depth]
            if expected is None:
                assert row.max_ratio is None
            else:
                assert row.max_ratio == float(expected)

    def test_separated_carpet_has_no_adjacent_pairs(self, carpet_vssc):
        m = sd.coordinate_uniform(carpet_vssc)
        rep = sd.doubling_report(carpet_vssc, m, 12)
        assert rep.verdict is sd.DoublingVerdict.DOUBLING
        assert all(row.pair_count == 0 for row in rep.per_depth)

    def test_reference_sponge_touching_cubes_found(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        rep = sd.doubling_report(sponge_234, m, 6)
        assert any(row.pair_count > 0 for row in rep.per_depth)

    def test_growth_requires_three_depth_window(self, carpet_vssc):
        m = sd.coordinate_uniform(carpet_vssc)
        rep = sd.doubling_report(carpet_vssc, m, 8)
        assert rep.window_start is None

    @staticmethod
    def _assert_matches_oracle(s, m, rep):
        rows, growth, verdict, window = oracle.doubling_report(s, m, rep.max_depth)
        assert [
            (row.depth, row.pair_count, row.max_ratio, row.witness)
            for row in rep.per_depth
        ] == rows
        assert rep.growth_rate == growth
        assert rep.verdict.value == verdict
        assert rep.window_start == window

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**5), max_depth=st.integers(1, 5))
    def test_sweep_matches_recursive_oracle(self, seed, max_depth):
        """Rows, witnesses and verdicts equal the exact recursion's."""
        rng = random.Random(seed)
        s = random_strict_sponge(rng, max_base=5, max_digits=6)
        digits = sorted(s.digits)
        measures = [sd.coordinate_uniform(s)]
        for _ in range(2):
            ints = [rng.randint(1, 20) for _ in digits]
            measures.append(sd.BernoulliMeasure(
                s, {t: Fraction(a, sum(ints)) for t, a in zip(digits, ints)}
            ))
        for m in measures:
            self._assert_matches_oracle(s, m, sd.doubling_report(s, m, max_depth))

    @pytest.mark.parametrize(
        "name, depth",
        [("carpet_24", 9), ("sponge_234", 5), ("sponge_344", 3), ("carpet_vssc", 8)],
    )
    def test_sample_sponges_match_recursive_oracle(self, request, name, depth):
        s = request.getfixturevalue(name)
        for m in list(sd.positive_weight_grid(s, Fraction(1, len(s.digits) + 1)))[:3]:
            self._assert_matches_oracle(s, m, sd.doubling_report(s, m, depth))

    @pytest.mark.parametrize("d", [2, 3])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**5), max_depth=st.integers(1, 4))
    def test_plan_middles_are_the_face_sharing_pairs(self, d, seed, max_depth):
        """Middles, expanded over every prefix and suffix, are each face-sharing
        pair once, and a middle's key is its least lower cube.

        Bases are strictly increasing, so depth 1 leaves every coordinate
        but the first unpinned (k_l = 0), and deeper depths often leave the
        last ones unpinned too.
        """
        rng = random.Random(seed)
        s = random_strict_sponge(rng, max_d=d, max_base=5, max_digits=8)
        while s.d != d:
            s = random_strict_sponge(rng, max_d=d, max_base=5, max_digits=8)
        for k in range(1, max_depth + 1):
            if sd.count_cubes(s, Fraction(1, s.bases[0] ** k)) > 300:
                break
            plan = _DepthPlan(s, k)
            ks = plan.ks
            sets = [s.level_sets[sum(v >= t for v in ks)] for t in range(1, ks[0] + 1)]

            def grid(word):
                return tuple(
                    sum(word[t][l] * n ** (kl - 1 - t) for t in range(kl))
                    for l, (n, kl) in enumerate(zip(s.bases, ks))
                )

            pairs = []
            for l, lower, upper, key in plan.middles:
                j = ks[l] - len(lower)
                expanded = [
                    (grid(prefix + lower + suffix), grid(prefix + upper + suffix))
                    for prefix in itertools.product(*sets[:j])
                    for suffix in itertools.product(*sets[ks[l]:])
                ]
                assert plan.coordinates(key) == min(expanded)[0]
                pairs += expanded
            assert len(pairs) == plan.pair_count
            assert sorted(pairs) == sorted(oracle.adjacent_pairs(s, k))

    def test_a_sweep_plans_each_depth_once(self, carpet_24, monkeypatch):
        builds = []

        class Recording(verify._DepthPlan):
            def __init__(self, s, k):
                builds.append(k)
                super().__init__(s, k)

        monkeypatch.setattr(verify, "_DepthPlan", Recording)
        verify._depth_plans.cache_clear()
        try:
            for m in sd.positive_weight_grid(carpet_24, Fraction(1, 5)):
                sd.doubling_report(carpet_24, m, 4)
        finally:
            verify._depth_plans.cache_clear()
        assert builds == [1, 2, 3, 4]

    def test_cap_checked_before_a_depth_is_built(self, carpet_24):
        m = sd.coordinate_uniform(carpet_24)
        with pytest.raises(sd.EnumerationTooLarge, match="depth 18 needs 10077696 cubes"):
            sd.doubling_report(carpet_24, m, 20)


class TestWitnesses:
    def test_max_mode_picks_smallest_maximizers(self, sponge_234):
        assert sd.extremal_witnesses(sponge_234, Mode.MAX) == {
            2: (1, 0, 2),
            3: (1, 1, 0),
        }

    def test_min_mode_picks_smallest_minimizers(self, sponge_234):
        assert sd.extremal_witnesses(sponge_234, Mode.MIN) == {
            2: (0, 0, 0),
            3: (0, 1, 2),
        }

    def test_witness_prefix_attains_extreme(self, sponge_234):
        s = sponge_234
        for mode, pick in ((Mode.MAX, max), (Mode.MIN, min)):
            witnesses = sd.extremal_witnesses(s, mode)
            for l in range(2, s.d + 1):
                counts = {
                    p: s.fibre_count(p)
                    for p in ([()] if l == 2 else [])
                }
                prefixes = (
                    s.level_sets[l - 1] if l >= 2 else [()]
                )
                counts = {p: s.fibre_count(p) for p in prefixes}
                target = pick(counts.values())
                assert counts[witnesses[l][: l - 1]] == target


class TestTangentWord:
    def test_block_structure(self, sponge_234):
        word = sd.tangent_word(sponge_234, Fraction(1, 16), Mode.MAX)
        assert word == ((0, 0, 0), (0, 0, 0), (1, 0, 2), (1, 0, 2))

    def test_planar_trailing_block(self, carpet_24):
        for k in (2, 3, 4):
            word = sd.tangent_word(carpet_24, Fraction(1, 4**k), Mode.MAX)
            assert len(word) == 2 * k
            assert word[:k] == tuple([(0, 1)] * k)
            assert word[k:] == tuple([(1, 1)] * k)

    def test_repeated_bases_refused(self, sponge_344):
        with pytest.raises(sd.NonStrictBases):
            sd.tangent_word(sponge_344, Fraction(1, 16), Mode.MAX)


class TestTangentMap:
    def test_own_box_maps_to_unit_cube(self, sponge_234):
        tmap = sd.tangent_map(sponge_234, Fraction(1, 16), Mode.MAX)
        box = oracle.cube_box(sponge_234, tmap.cube)
        assert tuple(
            (k * lo - o, k * hi - o)
            for k, o, (lo, hi) in zip(tmap.scales, tmap.offsets, box)
        ) == tuple((Fraction(0), Fraction(1)) for _ in range(3))

    def test_band_for_reference_scale(self, sponge_234):
        tmap = sd.tangent_map(sponge_234, Fraction(1, 16), Mode.MAX)
        assert tmap.scales == (16, 9, 16)
        assert tmap.a == 9
        assert tmap.b == 16

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**5), e=st.integers(1, 10))
    def test_lipschitz_band_bounded(self, seed, e):
        s = random_strict_sponge(random.Random(seed))
        R = Fraction(1, s.bases[0] ** e)
        tmap = sd.tangent_map(s, R, Mode.MAX)
        assert tmap.b <= s.bases[-1] * tmap.a


class TestHatSet:
    def test_alphabets(self, sponge_234):
        assert sd.hat_digit_alphabets(sponge_234, Mode.MAX) == (
            (0, 1),
            (0, 1, 2),
            (0, 1, 2),
        )
        assert sd.hat_digit_alphabets(sponge_234, Mode.MIN) == (
            (0, 1),
            (0, 1),
            (2,),
        )

    def test_level_zero(self, sponge_234):
        bs = oracle.hat_set_prefractal(sponge_234, Mode.MAX, 0)
        assert bs == (tuple((Fraction(0), Fraction(1)) for _ in range(3)),)

    def test_reference_box_count(self, sponge_234):
        assert len(oracle.hat_set_prefractal(sponge_234, Mode.MAX, 2)) == 9

    def test_full_alphabets_collapse(self, sponge_234):
        """Coordinates whose alphabet fills the base stay a single interval."""
        bs = oracle.hat_set_prefractal(sponge_234, Mode.MAX, 3)
        for box in bs:
            assert box[0] == (Fraction(0), Fraction(1))
            assert box[1] == (Fraction(0), Fraction(1))

    def test_third_coordinate_matches_interval_oracle(self, sponge_234):
        bs = oracle.hat_set_prefractal(sponge_234, Mode.MAX, 2)
        got = sorted(box[2] for box in bs)
        assert got == oracle.alphabet_intervals(4, (0, 1, 2), 2)

    def test_dimension_identity(self, sponge_234):
        """Per-coordinate alphabet sizes reproduce the extremal dimensions."""
        s = sponge_234
        for mode, target in (
            (Mode.MAX, sd.assouad_dim(s)),
            (Mode.MIN, sd.lower_dim(s)),
        ):
            alphabets = sd.hat_digit_alphabets(s, mode)
            value = sum(
                math.log(len(a)) / math.log(n) for a, n in zip(alphabets, s.bases)
            )
            assert value == pytest.approx(target, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**5))
    def test_dimension_identity_random(self, seed):
        s = random_strict_sponge(random.Random(seed))
        alphabets = sd.hat_digit_alphabets(s, Mode.MAX)
        value = sum(
            math.log(len(a)) / math.log(n) for a, n in zip(alphabets, s.bases)
        )
        assert value == pytest.approx(sd.assouad_dim(s), abs=1e-9)

    def test_boundary_alphabet_refused(self):
        s = sd.validate_sponge((2, 3), [(0, 0), (1, 0), (1, 2)])
        with pytest.raises(sd.UnsupportedBoundaryTangent):
            oracle.hat_set_prefractal(s, Mode.MIN, 1)

    def test_interior_singleton_allowed(self, sponge_234):
        """A one-letter alphabet off the boundary contributes one interval."""
        bs = oracle.hat_set_prefractal(sponge_234, Mode.MIN, 3)
        # coordinates: full {0,1} collapses, {0,1} of 3 branches, {2} shrinks
        assert len(bs) == 2**3
        third = {box[2] for box in bs}
        assert third == {(Fraction(21, 32), Fraction(43, 64))}


    def test_huge_level_refused(self, sponge_234):
        with pytest.raises(sd.EnumerationTooLarge):
            oracle.hat_set_prefractal(sponge_234, Mode.MAX, 10**9)


class TestTangentImage:
    def test_exact_boxes_inside_unit_cube(self, sponge_234):
        bs = sd.tangent_image(sponge_234, Fraction(1, 16), Mode.MAX, 6)
        assert len(bs) > 0
        for box in oracle.boxset_boxes(bs):
            for lo, hi in box:
                assert Fraction(0) <= lo < hi <= Fraction(1)

    def test_level_must_reach_cube_depth(self, sponge_234):
        with pytest.raises(sd.ScaleOutOfRange):
            sd.tangent_image(sponge_234, Fraction(1, 16), Mode.MAX, 3)

    def test_blocks_land_in_witness_alphabet_cells(self, carpet_24):
        """Rescaled cube boxes sit inside the hat IFS intervals.

        On this carpet the second coordinate of the Max witness generates
        intervals from the alphabet {1, 3}, so the containment is a real
        constraint rather than the full unit interval.
        """
        R = Fraction(1, 16)
        gap = 2  # k1 - k2 at this scale
        cells = oracle.alphabet_intervals(4, (1, 3), gap)
        bs = sd.tangent_image(carpet_24, R, Mode.MAX, 6)
        for box in oracle.boxset_boxes(bs):
            lo, hi = box[1]
            assert any(clo <= lo and hi <= chi for clo, chi in cells)


    def test_exact_boxes_match_rescaled_prefractal(self, spec_dir):
        """Each image box is the tangent map applied to a pre-fractal box."""
        for name, R, level in (("sponge_234", Fraction(1, 4), 4),
                               ("carpet_24", Fraction(1, 16), 6)):
            s = sd.load_sponge(spec_dir / f"{name}.json")
            for mode in Mode:
                expected = oracle.tangent_image_boxes(s, R, mode, level)
                got = oracle.boxset_boxes(sd.tangent_image(s, R, mode, level))
                assert got == expected


class TestTangentConvergence:
    def test_full_grid_tangent_is_exact(self, full_grid_234):
        rep = sd.check_tangent_convergence(
            full_grid_234, Fraction(1, 16), Mode.MAX, 6
        )
        assert rep.ok
        assert rep.distance == pytest.approx(0.0, abs=1e-12)

    def test_reference_scale_fields(self, sponge_234):
        rep = sd.check_tangent_convergence(sponge_234, Fraction(1, 16), Mode.MAX, 6)
        assert rep.ok
        assert rep.refinement == 2
        assert rep.bound == pytest.approx(rep.base_term + rep.slack_term)
        # gaps are (k1 - k2, k2 - k3) = (2, 0), so the base term is sqrt(3)
        assert rep.base_term == pytest.approx(math.sqrt(3))
        assert rep.distance <= rep.bound

    def test_level_below_cube_depth_refused(self, sponge_234):
        with pytest.raises(sd.ScaleOutOfRange):
            sd.check_tangent_convergence(sponge_234, Fraction(1, 16), Mode.MAX, 2)


    def test_huge_level_refused(self, sponge_234):
        with pytest.raises(sd.EnumerationTooLarge):
            sd.check_tangent_convergence(sponge_234, Fraction(1, 16), Mode.MAX, 10**9)


@st.composite
def _dyadic_union(draw):
    """Sorted disjoint intervals with ends in (1/64)Z, and u <= v around them.

    Dyadic values with few bits are exact as floats, and so are their
    differences and halves, so the float distances must equal the exact ones.
    """
    points = sorted(draw(st.sets(st.integers(0, 64), min_size=2, max_size=12)))
    points = points[: len(points) // 2 * 2]
    u, v = sorted(draw(st.lists(st.integers(-16, 80), min_size=2, max_size=2)))
    return (u / 64, v / 64, [a / 64 for a in points[::2]],
            [b / 64 for b in points[1::2]])


class TestIntervalSupDist:
    """The one-dimensional sup distance against the exact rational oracle."""

    def test_gap_past_the_right_end(self):
        # [u, v] ends inside the gap (0.1, 0.9) past its midpoint 0.5
        assert _interval_sup_dist(0.0, 0.6, [0.0, 0.9], [0.1, 1.0]) == 0.4

    @settings(max_examples=300, deadline=None)
    @given(case=_dyadic_union())
    def test_matches_oracle(self, case):
        u, v, starts, ends = case
        exact = oracle.interval_sup_dist(u, v, starts, ends)
        assert _interval_sup_dist(u, v, starts, ends) == exact
        assert _interval_sup_bound(u, v, starts, ends) >= exact


class TestTangentDistanceOracle:
    """The pruned walk returns exactly the leaf-by-leaf distance."""

    @pytest.mark.parametrize("mode", list(Mode))
    def test_sample_specs(self, spec_dir, mode):
        for name, R, level in (("sponge_234", Fraction(1, 4), 4),
                               ("carpet_24", Fraction(1, 16), 6)):
            s = sd.load_sponge(spec_dir / f"{name}.json")
            rep = sd.check_tangent_convergence(s, R, mode, level)
            assert rep.distance == oracle.tangent_distance(s, R, mode, level)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**5),
        e=st.integers(1, 2),
        extra=st.integers(1, 2),
        mode=st.sampled_from(list(Mode)),
    )
    def test_random_sponges(self, seed, e, extra, mode):
        s = random_strict_sponge(random.Random(seed), max_base=5, max_digits=6)
        R = Fraction(1, s.bases[0] ** e)
        level = e + extra
        try:
            rep = sd.check_tangent_convergence(s, R, mode, level)
        except sd.UnsupportedBoundaryTangent:
            return
        assert rep.distance == oracle.tangent_distance(s, R, mode, level)


class TestSerialization:
    def test_scan_json_schema(self, sponge_234):
        m = sd.coordinate_uniform(sponge_234)
        rep = sd.scan_cube_ratios(sponge_234, m, 10, 2, depth=10)
        doc = json.loads(report_to_json(rep))
        assert doc["schema_version"] == 1
        assert doc["violation_count"] == 0

    def test_doubling_json_and_text(self, carpet_24):
        m = sd.coordinate_uniform(carpet_24)
        rep = sd.doubling_report(carpet_24, m, 6)
        doc = json.loads(report_to_json(rep))
        assert doc["schema_version"] == 1
        assert doc["verdict"] == "NonDoublingCertificate"

    def test_convergence_json_with_map(self, sponge_234):
        rep = sd.check_tangent_convergence(sponge_234, Fraction(1, 16), Mode.MAX, 6)
        doc = json.loads(report_to_json(rep))
        assert doc["map_band"] == [9, 16]
        assert doc["ok"] is True
