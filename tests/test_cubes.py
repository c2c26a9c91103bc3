"""Scale exponents, symbolic cubes, counting, and pre-fractal geometry."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import spongedim as sd
import _oracles as oracle
from spongedim.cli import run
from spongedim.cubes import (
    DEFAULT_CAP, _csv_chunks, _prefractal_blocks, _svg_chunks, admit, as_scale,
)
from spongedim.verify import _tangent_blocks
from conftest import random_strict_sponge


class TestScaleExponents:
    def test_unit_scale(self, sponge_234):
        assert sd.scale_exponents(sponge_234, 1).k == (0, 0, 0)

    def test_decimal_exponent_bounded(self, carpet_24):
        at_bound = sd.scale_exponents(carpet_24, "1e-1000")
        assert at_bound.scale == Fraction(1, 10**1000)
        for text in ("1e-1001", "1E+1001", "1e-1_000_000_000"):
            with pytest.raises(ValueError, match="exponent"):
                sd.scale_exponents(carpet_24, text)

    def test_digit_bound_follows_the_int_str_limit(self):
        """The refusal boundary is 10**limit for the limit in force at the call,
        also when the limit goes back to a value already used."""
        old = sys.get_int_max_str_digits()
        try:
            for limit in (700, 640, 700):
                sys.set_int_max_str_digits(limit)
                assert as_scale("9" * limit) == 10**limit - 1
                assert as_scale(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
                for text in (f"1e{limit}", f"1e-{limit}"):
                    with pytest.raises(ValueError, match=f"over {limit} digits"):
                        as_scale(text)
            assert as_scale("1e640") == 10**640
        finally:
            sys.set_int_max_str_digits(old)

    def test_quarter(self, sponge_234):
        assert sd.scale_exponents(sponge_234, Fraction(1, 4)).k == (2, 1, 1)

    def test_planar_power_pattern(self, carpet_24):
        for k in range(1, 8):
            exps = sd.scale_exponents(carpet_24, Fraction(1, 4**k))
            assert exps.k == (2 * k, k)

    def test_exact_boundary_maps_down(self, sponge_234):
        # r = n1^-k belongs to exponent k, not k + 1
        assert sd.scale_exponents(sponge_234, Fraction(1, 8)).k[0] == 3
        assert sd.scale_exponents(sponge_234, Fraction(1, 9)).k[1] == 2

    def test_out_of_range(self, sponge_234):
        for bad in (0, 2, Fraction(-1, 2)):
            with pytest.raises(sd.ScaleOutOfRange):
                sd.scale_exponents(sponge_234, bad)

    @settings(max_examples=80, deadline=None)
    @given(
        num=st.integers(1, 10**6),
        den=st.integers(1, 10**6),
        seed=st.integers(0, 10**5),
    )
    def test_bracketing_inequalities(self, num, den, seed):
        s = random_strict_sponge(random.Random(seed))
        r = Fraction(min(num, den), max(num, den))
        exps = sd.scale_exponents(s, r)
        for n, k in zip(s.bases, exps.k):
            assert Fraction(1, n ** (k + 1)) < r <= Fraction(1, n**k)
        assert list(exps.k) == sorted(exps.k, reverse=True)

    @settings(max_examples=80, deadline=None)
    @given(
        num=st.integers(1, 10**40),
        den=st.integers(1, 10**40),
        seed=st.integers(0, 10**5),
    )
    def test_matches_fraction_loop(self, num, den, seed):
        s = random_strict_sponge(random.Random(seed))
        r = Fraction(min(num, den), max(num, den))
        assert sd.scale_exponents(s, r).k == oracle.scale_depths(s, r)

    def test_boundaries_match_fraction_loop(self, sponge_234, carpet_24):
        """r = n^-k and its nearest neighbours on either side, up to k = 120."""
        for s in (sponge_234, carpet_24):
            for n in s.bases:
                for k in range(121):
                    for r in (
                        Fraction(1, n**k),
                        Fraction(1, n**k + 1),
                        Fraction(2, 2 * n**k - 1),
                    ):
                        if r <= 1:
                            assert sd.scale_exponents(s, r).k == oracle.scale_depths(s, r)


class TestApproximateCube:
    def test_constraint_truncation(self, sponge_234):
        q = sd.approximate_cube(sponge_234, [(0, 0, 0), (0, 0, 0)], Fraction(1, 4))
        assert q.constraints == ((0, 0), (0,), (0,))

    def test_trivial_cube(self, sponge_234):
        q = sd.approximate_cube(sponge_234, [], 1)
        assert q.constraints == ((), (), ())

    def test_planar_tracks(self, carpet_24):
        q = sd.approximate_cube(carpet_24, [(0, 1), (1, 1)], Fraction(1, 4))
        assert q.constraints == ((0, 1), (1,))

    def test_word_too_short(self, sponge_234):
        with pytest.raises(sd.WordTooShort):
            sd.approximate_cube(sponge_234, [(0, 0, 0)], Fraction(1, 4))

    def test_nesting_under_scale_refinement(self, sponge_234):
        word = [(0, 0, 3), (1, 2, 2), (1, 1, 0), (0, 1, 2)]
        coarse = sd.approximate_cube(sponge_234, word, Fraction(1, 4))
        fine = sd.approximate_cube(sponge_234, word, Fraction(1, 16))
        for l in range(3):
            c = coarse.constraints[l]
            assert fine.constraints[l][: len(c)] == c


def lattice_cell(s, q):
    """The cube's box as the cell [o, o + 1] / k of its tangent map."""
    tmap = sd.TangentMap.from_cube(s, q)
    return tuple(
        (Fraction(o, k), Fraction(o + 1, k)) for o, k in zip(tmap.offsets, tmap.scales)
    )


class TestGeometricBox:
    """A cube's box is the lattice cell of its tangent map's offsets and scales."""

    def test_trivial_box(self, sponge_234):
        q = sd.approximate_cube(sponge_234, [], 1)
        assert lattice_cell(sponge_234, q) == tuple(
            (Fraction(0), Fraction(1)) for _ in range(3)
        )

    def test_zero_word_box(self, sponge_234):
        q = sd.approximate_cube(sponge_234, [(0, 0, 0), (0, 0, 0)], Fraction(1, 4))
        assert lattice_cell(sponge_234, q) == (
            (Fraction(0), Fraction(1, 4)),
            (Fraction(0), Fraction(1, 3)),
            (Fraction(0), Fraction(1, 4)),
        )

    def test_positional_arithmetic(self, carpet_24):
        q = sd.approximate_cube(carpet_24, [(0, 1), (1, 1)], Fraction(1, 4))
        expected = (
            (Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, 4), Fraction(1, 2)),
        )
        assert lattice_cell(carpet_24, q) == expected
        assert oracle.cube_box(carpet_24, q) == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**5), a=st.integers(0, 12))
    def test_side_lengths_comparable_to_scale(self, seed, a):
        rng = random.Random(seed)
        s = random_strict_sponge(rng)
        r = Fraction(1, s.bases[0] ** a) * Fraction(rng.randint(2, 5), 5)
        if r > 1:
            r = Fraction(1)
        word = [rng.choice(s.digits) for _ in range(sd.scale_exponents(s, r).k[0])]
        q = sd.approximate_cube(s, word, r)
        for k, n in zip(q.exponents.k, s.bases):
            side = Fraction(1, n**k)
            assert r <= side < n * r
        assert lattice_cell(s, q) == oracle.cube_box(s, q)


class TestAdmit:
    def test_endless_factors_refused_at_once(self):
        with pytest.raises(sd.EnumerationTooLarge):
            admit("x", itertools.repeat(2, 10**18))

    def test_cap_itself_passes(self):
        admit("x", [DEFAULT_CAP])

    def test_one_past_the_cap_refused_with_the_one_message(self):
        with pytest.raises(sd.EnumerationTooLarge) as info:
            admit("x", [DEFAULT_CAP + 1])
        assert str(info.value) == f"x: over the cap of {DEFAULT_CAP}"


class TestSubcubes:
    def test_reference_split_count(self, sponge_234):
        q = sd.approximate_cube(sponge_234, [(0, 0, 0)], Fraction(1, 2))
        subs = sd.subcubes(sponge_234, q, Fraction(1, 4))
        assert len(subs) == 6

    def test_matches_enumeration(self, sponge_234):
        q = sd.approximate_cube(sponge_234, [(0, 0, 0)], Fraction(1, 2))
        subs = sd.subcubes(sponge_234, q, Fraction(1, 4))
        got = {c.constraints for c in subs}
        assert got == oracle.brute_subcube_signatures(sponge_234, q, Fraction(1, 4))

    def test_identity_when_exponents_match(self, sponge_234):
        # 1/5 < 1/4 but both scales share the exponent vector (2, 1, 1)
        q = sd.approximate_cube(sponge_234, [(1, 0, 2), (1, 1, 1)], Fraction(1, 4))
        subs = sd.subcubes(sponge_234, q, Fraction(1, 5))
        assert len(subs) == 1
        assert subs[0].constraints == q.constraints

    def test_scale_ordering_enforced(self, sponge_234):
        q = sd.approximate_cube(sponge_234, [(0, 0, 0), (0, 0, 0)], Fraction(1, 4))
        with pytest.raises(sd.ScaleOutOfRange):
            sd.subcubes(sponge_234, q, Fraction(1, 2))

    def test_cap_triggers(self, sponge_234):
        q = sd.approximate_cube(sponge_234, [(0, 0, 0)], Fraction(1, 2))
        with pytest.raises(sd.EnumerationTooLarge):
            sd.subcubes(sponge_234, q, Fraction(1, 2**40))

    def test_count_sandwich(self, sponge_234):
        s = sponge_234
        rng = random.Random(3)
        dim_a = sd.assouad_dim(s)
        dim_l = sd.lower_dim(s)
        for _ in range(10):
            a = rng.randint(0, 3)
            b = rng.randint(a + 1, 6)
            big_r = Fraction(1, 2**a)
            small_r = Fraction(1, 2**b)
            word = [rng.choice(s.digits) for _ in range(b)]
            q = sd.approximate_cube(s, word, big_r)
            count = len(sd.subcubes(s, q, small_r))
            ratio = float(big_r / small_r)
            assert count <= 2 * (4**3) * ratio**dim_a
            assert count >= (4**-3) * ratio**dim_l

    def test_partition_of_parent(self, sponge_234):
        """Consistent deeper words land in exactly one sub-cube each."""
        s = sponge_234
        q = sd.approximate_cube(s, [(1, 1, 0)], Fraction(1, 2))
        subs = sd.subcubes(s, q, Fraction(1, 4))
        k = sd.scale_exponents(s, Fraction(1, 4)).k
        import itertools

        for w in itertools.product(s.digits, repeat=2):
            sig = oracle.cube_signature(s, w, k)
            if sig[0][:1] != q.constraints[0]:
                continue
            homes = [c for c in subs if c.constraints == sig]
            assert len(homes) == 1


class TestCountCubes:
    def test_reference_value(self, sponge_234):
        assert sd.count_cubes(sponge_234, Fraction(1, 4)) == 20

    def test_unit_scale(self, sponge_234):
        assert sd.count_cubes(sponge_234, 1) == 1

    def test_matches_enumeration_across_scales(self, sponge_234):
        for a in range(5):
            r = Fraction(1, 2**a)
            assert sd.count_cubes(sponge_234, r) == oracle.brute_count_cubes(
                sponge_234, r
            )

    def test_matches_enumeration_on_random_carpet(self):
        s = random_strict_sponge(random.Random(99), max_d=2, max_digits=8)
        for a in range(6):
            r = Fraction(1, s.bases[0] ** a)
            assert sd.count_cubes(s, r) == oracle.brute_count_cubes(s, r)


class TestBoxDimSlope:
    def test_reference_sponge(self, sponge_234):
        assert abs(sd.box_dim_slope(sponge_234, 40) - sd.box_dim(sponge_234)) < 0.05

    def test_full_grid_equal_bases_exact(self):
        # equal bases make every exponent hit the depth exactly, so the
        # estimator is d at every depth rather than only in the limit
        import itertools

        s = sd.validate_sponge(
            (3, 3, 3), list(itertools.product(range(3), repeat=3))
        )
        for depth in (1, 5, 17):
            assert sd.box_dim_slope(s, depth) == pytest.approx(3.0, abs=1e-9)

    def test_full_grid_mixed_bases_converges(self, full_grid_234):
        assert abs(sd.box_dim_slope(full_grid_234, 40) - 3.0) < 0.05

    def test_small_carpet(self, carpet_23):
        expected = 1 + math.log(1.5) / math.log(3)
        assert abs(sd.box_dim_slope(carpet_23, 60) - expected) < 0.03


def _csv(dens, blocks) -> str:
    return "".join(_csv_chunks(dens, blocks))


def _svg(dens, blocks) -> str:
    return "".join(_svg_chunks(dens, blocks))


class TestPrefractal:
    def test_level_zero(self, sponge_234):
        boxes = oracle.boxset_boxes(*_prefractal_blocks(sponge_234, 0))
        assert len(boxes) == 1
        assert boxes[0] == tuple((Fraction(0), Fraction(1)) for _ in range(3))

    def test_level_one_sides(self, sponge_234):
        boxes = oracle.boxset_boxes(*_prefractal_blocks(sponge_234, 1))
        assert len(boxes) == 10
        for box in boxes:
            sides = tuple(hi - lo for lo, hi in box)
            assert sides == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))

    def test_level_two_interior_disjoint(self, sponge_234):
        boxes = oracle.boxset_boxes(*_prefractal_blocks(sponge_234, 2))
        assert len(boxes) == 100
        boxes = sorted(boxes)
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                if b[0][0] >= a[0][1]:
                    break
                overlap = all(
                    max(alo, blo) < min(ahi, bhi)
                    for (alo, ahi), (blo, bhi) in zip(a, b)
                )
                assert not overlap

    def test_each_box_has_one_parent(self, carpet_24):
        parents = oracle.boxset_boxes(*_prefractal_blocks(carpet_24, 1))
        for child in oracle.boxset_boxes(*_prefractal_blocks(carpet_24, 2)):
            containing = [
                p
                for p in parents
                if all(
                    plo <= clo and chi <= phi
                    for (plo, phi), (clo, chi) in zip(p, child)
                )
            ]
            assert len(containing) == 1

    def test_cap(self, sponge_234):
        with pytest.raises(sd.EnumerationTooLarge):
            _prefractal_blocks(sponge_234, 8)


    def test_cap_refuses_huge_level_without_forming_the_count(self, sponge_234):
        with pytest.raises(sd.EnumerationTooLarge, match=r"10\^1000000000 boxes"):
            _prefractal_blocks(sponge_234, 10**9)


class TestBoxExport:
    def test_csv_shape(self, carpet_24):
        text = _csv(*_prefractal_blocks(carpet_24, 1))
        lines = text.strip().splitlines()
        assert lines[0] == "lo_1,hi_1,lo_2,hi_2"
        assert len(lines) == 4
        assert "1/4" in text

    def test_svg_shape(self, carpet_24):
        svg = _svg(*_prefractal_blocks(carpet_24, 1))
        assert svg.count("<rect") == 3 + 1  # background + one per box


class TestExportOracle:
    """Pre-fractals and their exports agree with a per-box Fraction oracle."""

    # The last level of each spec spans several export blocks of
    # cubes._BLOCK_BOXES and ends on a block edge: 10 blocks of 10^3 boxes,
    # 9 of 3^7 and 2 of 2^12.
    @pytest.mark.parametrize(
        "name, levels",
        [("sponge_234", (0, 1, 2, 3, 4)), ("carpet_24", (*range(6), 9)),
         ("carpet_vssc_34", (*range(6), 13))],
    )
    def test_boxes_and_files_identical(self, spec_dir, tmp_path, name, levels):
        s = sd.load_sponge(spec_dir / f"{name}.json")
        for level in levels:
            dens, blocks = _prefractal_blocks(s, level)
            blocks = list(blocks)
            expected = oracle.prefractal_boxes(s, level)
            assert oracle.boxset_boxes(dens, blocks) == expected
            texts = {"csv": oracle.boxes_csv(expected)}
            assert _csv(dens, blocks) == texts["csv"]
            if s.d == 2:
                texts["svg"] = oracle.boxes_svg(expected)
                assert _svg(dens, blocks) == texts["svg"]
            for suffix, text in texts.items():
                out = tmp_path / f"{name}_{level}.{suffix}"
                assert run(["render", str(spec_dir / f"{name}.json"),
                            "--level", str(level), "--out", str(out)]) == 0
                assert out.read_bytes() == text.encode("utf-8")

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**5), level=st.integers(0, 4), depth=st.integers(0, 2))
    def test_random_sponges_export_alike(self, seed, level, depth):
        """Column exports of pre-fractals and tangent images match the oracle."""
        s = random_strict_sponge(random.Random(seed), max_base=5, max_digits=6)
        dens, blocks = _prefractal_blocks(s, level)
        blocks = list(blocks)
        expected = oracle.prefractal_boxes(s, level)
        assert _csv(dens, blocks) == oracle.boxes_csv(expected)
        if s.d == 2:
            assert _svg(dens, blocks) == oracle.boxes_svg(expected)
        R = Fraction(1, s.bases[0] ** depth)
        if level < depth:
            return
        mode = sd.Mode.MAX if seed % 2 else sd.Mode.MIN
        dens, _, blocks = _tangent_blocks(s, R, mode, level)
        assert _csv(dens, blocks) == oracle.boxes_csv(
            oracle.tangent_image_boxes(s, R, mode, level)
        )


class TestInvariantChecks:
    def test_rising_depths_raise_internal_error(self):
        # bypasses validation, which never lets bases fall
        s = sd.Sponge(bases=(4, 2), digits=((0, 0), (1, 1)))
        with pytest.raises(sd.InternalError):
            sd.scale_exponents(s, Fraction(1, 16))
