"""Sponge construction, projections, fibre counts, and separation checks."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

import spongedim as sd
from conftest import random_strict_sponge


class TestValidation:
    def test_reference_sponge_is_strict(self, sponge_234):
        assert sponge_234.strict_bases
        assert sponge_234.d == 3
        assert len(sponge_234.digits) == 10

    def test_repeated_bases_flagged_not_rejected(self, sponge_344):
        assert not sponge_344.strict_bases
        assert sponge_344.bases == (3, 4, 4)

    def test_degenerate_coordinate_reports_reduction(self):
        with pytest.raises(sd.DegenerateCoordinate) as exc:
            sd.validate_sponge((2, 4), [(0, 1), (1, 1)])
        err = exc.value
        assert err.coordinate == 2
        assert err.suggested_bases == (2,)
        assert sorted(err.suggested_digits) == [(0,), (1,)]

    def test_fewer_than_two_digits_rejected(self):
        with pytest.raises(sd.EmptyOrSingletonDigits):
            sd.validate_sponge((2, 3), [(0, 0)])
        with pytest.raises(sd.EmptyOrSingletonDigits):
            sd.validate_sponge((2, 3), [])

    def test_digit_out_of_range(self):
        with pytest.raises(sd.DigitOutOfRange):
            sd.validate_sponge((2, 3), [(0, 0), (2, 1)])
        with pytest.raises(sd.DigitOutOfRange):
            sd.validate_sponge((2, 3), [(0, -1), (1, 1)])

    def test_decreasing_bases_rejected(self):
        with pytest.raises(sd.DecreasingBases):
            sd.validate_sponge((3, 2), [(0, 0), (2, 1)])

    def test_set_semantics_and_lexicographic_storage(self):
        s = sd.validate_sponge((2, 3), [(1, 1), (0, 2), (0, 0), (1, 1)])
        assert s.digits == ((0, 0), (0, 2), (1, 1))

    def test_revalidation_is_idempotent(self, sponge_234):
        again = sd.validate_sponge(sponge_234.bases, sponge_234.digits)
        assert again.bases == sponge_234.bases
        assert again.digits == sponge_234.digits
        assert again.strict_bases == sponge_234.strict_bases


class TestProjection:
    def test_digit_set_projection_levels(self, sponge_234):
        assert set(sponge_234.level_sets[1]) == {(0,), (1,)}
        assert len(sponge_234.level_sets[3]) == 10

    def test_projection_of_repeated_base_sponge(self, sponge_344):
        level2 = set(sponge_344.level_sets[2])
        assert level2 == {(0, 0), (0, 3), (2, 0), (2, 3)}


class TestFibreCounts:
    def test_root_count(self, sponge_234):
        assert sponge_234.fibre_count(()) == 2

    def test_extremes_at_level_two(self, sponge_234):
        counts = [
            sponge_234.fibre_count(p)
            for p in sponge_234.level_sets[2]
        ]
        assert max(counts) == 3
        assert min(counts) == 1

    def test_specific_prefix(self, sponge_234):
        assert sponge_234.fibre_count((0, 0)) == 2

    def test_unknown_prefix_rejected(self, sponge_234):
        with pytest.raises(sd.PrefixNotInSponge):
            sponge_234.fibre_count((5,))

    def test_counts_sum_to_next_level_size(self, sponge_234, carpet_24, sponge_344):
        for s in (sponge_234, carpet_24, sponge_344):
            for l in range(s.d):
                prefixes = [()] if l == 0 else s.level_sets[l]
                total = sum(s.fibre_count(p) for p in prefixes)
                assert total == len(s.level_sets[l + 1])

    def test_counts_within_base_bounds(self, sponge_234):
        s = sponge_234
        for l in range(s.d):
            prefixes = [()] if l == 0 else s.level_sets[l]
            for p in prefixes:
                assert 1 <= s.fibre_count(p) <= s.bases[l]


class TestUniformFibres:
    def test_reference_sponge_not_uniform(self, sponge_234):
        assert not sd.has_uniform_fibres(sponge_234)

    def test_full_grid_uniform(self, full_grid_234):
        assert sd.has_uniform_fibres(full_grid_234)

    def test_small_carpet_not_uniform(self, carpet_23):
        assert not sd.has_uniform_fibres(carpet_23)

    def test_product_subgrid_uniform(self):
        digits = list(itertools.product([0, 1], [0, 2], [1, 3]))
        s = sd.validate_sponge((2, 3, 4), digits)
        assert sd.has_uniform_fibres(s)


class TestSeparation:
    def test_adjacent_first_digits_fail(self, carpet_24):
        assert not sd.satisfies_vssc(carpet_24)

    def test_gapped_carpet_passes(self, carpet_vssc):
        assert sd.satisfies_vssc(carpet_vssc)

    def test_reference_sponge_fails(self, sponge_234):
        assert not sd.satisfies_vssc(sponge_234)

    @given(seed=st.integers(0, 10**6))
    def test_matches_pairwise_definition(self, seed):
        s = random_strict_sponge(random.Random(seed), max_digits=12)
        expected = True
        for a, b in itertools.combinations(s.digits, 2):
            for l in range(s.d):
                if a[l] != b[l]:
                    if abs(a[l] - b[l]) <= 1:
                        expected = False
                    break
        assert sd.satisfies_vssc(s) == expected


class TestSerialization:
    def test_parser_rejects_duplicates_with_position(self):
        with pytest.raises(sd.SpongeFileError, match=r"digits\[1\]"):
            sd.sponge_from_json('{"bases": [2,3], "digits": [[0,0],[0,0],[1,1]]}')

    def test_parser_rejects_wrong_tuple_length(self):
        with pytest.raises(sd.SpongeError):
            sd.sponge_from_json('{"bases": [2,3], "digits": [[0,0],[0]]}')

    def test_parser_reports_json_position(self):
        with pytest.raises(sd.SpongeFileError, match="line 1"):
            sd.sponge_from_json("not json")

    def test_load_from_file(self, spec_dir):
        s = sd.load_sponge(str(spec_dir / "sponge_234.json"))
        assert s.bases == (2, 3, 4)
        assert len(s.digits) == 10
