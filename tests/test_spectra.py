
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammasort.spectra import (
    EnergyCalibration,
    Spectrum,
    SpectrumKind,
    csv_rows,
    default_calibration,
    read_csv_table,
    read_spectrum_csv,
    rebin,
    total_counts,
    write_spectrum_csv,
)


def make_spectrum(counts, kind=SpectrumKind.EXPECTED_TEMPLATE, dwell=1.0, e_min=0.0, e_max=3000.0):
    counts = np.asarray(counts, dtype=float)
    cal = EnergyCalibration(e_min, e_max, counts.size)
    return Spectrum(counts, cal, dwell, kind)


class TestEnergyCalibration:
    def test_default_is_1024_channels_over_3_mev(self):
        cal = default_calibration()
        assert cal.n_channels == 1024
        assert cal.channel_width == pytest.approx(2.9296875)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            EnergyCalibration(100.0, 10.0, 64)

    def test_rejects_zero_channels(self):
        with pytest.raises(ValueError):
            EnergyCalibration(0.0, 3000.0, 0)

    def test_bin_center_of_first_channel(self):
        # (3000 / 1024) * 0.5
        cal = default_calibration()
        assert cal.energy_of_channel(0) == pytest.approx(1.46484375, abs=1e-12)

    def test_bin_center_of_last_channel(self):
        cal = default_calibration()
        assert cal.energy_of_channel(1023) == pytest.approx(2998.53515625, abs=1e-12)

    def test_unit_width_calibration(self):
        cal = EnergyCalibration(0.0, 1000.0, 1000)
        assert cal.energy_of_channel(499) == pytest.approx(499.5)

    def test_out_of_range_channel_rejected(self):
        cal = default_calibration()
        with pytest.raises(ValueError):
            cal.energy_of_channel(-1)
        with pytest.raises(ValueError):
            cal.energy_of_channel(1024)

    def test_energy_strictly_increasing_in_channel(self):
        cal = EnergyCalibration(10.0, 2500.0, 777)
        energies = [cal.energy_of_channel(ch) for ch in range(777)]
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_channel_of_energy_inverts_bin_center(self):
        cal = default_calibration()
        for ch in (0, 1, 225, 1023):
            assert cal.channel_of_energy(cal.energy_of_channel(ch)) == ch


class TestSpectrumValidation:
    def test_length_mismatch_rejected(self):
        cal = EnergyCalibration(0.0, 3000.0, 8)
        with pytest.raises(ValueError):
            Spectrum(np.ones(7), cal, 1.0, SpectrumKind.EXPECTED_TEMPLATE)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            make_spectrum([1.0, -0.5, 2.0])

    def test_realization_must_be_integer_valued(self):
        with pytest.raises(ValueError):
            make_spectrum([1.0, 2.5], kind=SpectrumKind.SAMPLED_REALIZATION)
        make_spectrum([1.0, 2.0], kind=SpectrumKind.SAMPLED_REALIZATION)

    def test_zero_dwell_rejected(self):
        with pytest.raises(ValueError):
            make_spectrum([1.0, 2.0], dwell=0.0)

    def test_counts_are_read_only(self):
        s = make_spectrum([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            s.counts[0] = 9.0


class TestTotalCounts:
    def test_zero_spectrum(self):
        assert total_counts(make_spectrum(np.zeros(16))) == 0.0

    def test_all_ones_256(self):
        assert total_counts(make_spectrum(np.ones(256))) == 256.0

    def test_matches_independent_summation(self):
        counts = np.arange(1.0, 65.0)
        expected = sum(float(c) for c in counts)  # plain running sum as oracle
        assert total_counts(make_spectrum(counts)) == pytest.approx(expected, rel=1e-15)


class TestRebin:
    def test_uniform_case(self):
        s = make_spectrum(np.ones(1024))
        r = rebin(s, 4)
        assert r.calibration.n_channels == 256
        assert np.all(r.counts == 4.0)

    def test_factor_one_is_identity(self):
        s = make_spectrum([1.0, 2.0, 3.0, 4.0])
        r = rebin(s, 1)
        assert np.array_equal(r.counts, s.counts)
        assert r.calibration == s.calibration

    def test_hand_summation_oracle(self):
        s = make_spectrum([1, 2, 3, 4, 5, 6, 7, 8])
        r = rebin(s, 2)
        assert r.counts.tolist() == [3.0, 7.0, 11.0, 15.0]

    def test_energy_range_unchanged(self):
        s = make_spectrum(np.ones(64), e_min=50.0, e_max=850.0)
        r = rebin(s, 8)
        assert (r.calibration.e_min, r.calibration.e_max) == (50.0, 850.0)
        assert r.calibration.n_channels == 8

    def test_non_divisor_rejected(self):
        s = make_spectrum(np.ones(10))
        with pytest.raises(ValueError):
            rebin(s, 3)

    def test_kind_and_dwell_preserved(self):
        s = make_spectrum(np.arange(8.0), kind=SpectrumKind.SAMPLED_REALIZATION, dwell=2.5)
        r = rebin(s, 2)
        assert r.kind is SpectrumKind.SAMPLED_REALIZATION
        assert r.dwell_s == 2.5

    @given(
        st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=48),
        st.integers(min_value=1, max_value=48),
    )
    @settings(max_examples=200, deadline=None)
    def test_conserves_totals_exactly_for_integer_counts(self, blocks, factor):
        counts = np.repeat(np.asarray(blocks, dtype=float), factor)[: len(blocks) * factor]
        s = make_spectrum(counts, kind=SpectrumKind.SAMPLED_REALIZATION)
        assert total_counts(rebin(s, factor)) == total_counts(s)

    def test_conserves_totals_to_rounding_for_real_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = make_spectrum(rng.uniform(0.0, 1000.0, size=512))
            assert total_counts(rebin(s, 8)) == pytest.approx(total_counts(s), rel=1e-14)

    def test_composition_matches_single_rebin_for_integers(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 1000, size=96).astype(float)
        s = make_spectrum(counts, kind=SpectrumKind.SAMPLED_REALIZATION)
        two_step = rebin(rebin(s, 2), 3)
        one_step = rebin(s, 6)
        assert np.array_equal(two_step.counts, one_step.counts)
        assert two_step.calibration == one_step.calibration


class TestSpectrumCsv:
    def test_round_trip_integer_counts_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        s = make_spectrum(
            rng.integers(0, 10**6, size=128).astype(float),
            kind=SpectrumKind.SAMPLED_REALIZATION,
            dwell=1.0,
        )
        path = tmp_path / "s.csv"
        write_spectrum_csv(s, path)
        back = read_spectrum_csv(path)
        assert np.array_equal(back.counts, s.counts)
        assert back.calibration == s.calibration
        assert back.dwell_s == s.dwell_s
        assert back.kind is s.kind

    def test_round_trip_real_counts_value_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        s = make_spectrum(rng.uniform(0, 500, size=64), dwell=86400.0)
        path = tmp_path / "t.csv"
        write_spectrum_csv(s, path)
        back = read_spectrum_csv(path)
        assert np.array_equal(back.counts, s.counts)

    def test_header_carries_calibration(self, tmp_path):
        s = make_spectrum(np.ones(4), e_min=10.0, e_max=90.0, dwell=3.0)
        path = tmp_path / "h.csv"
        write_spectrum_csv(s, path)
        first = path.read_text().splitlines()[0]
        assert first == "# e_min=10.0 e_max=90.0 dwell=3.0 kind=template"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("channel,counts\n0,1.0\n")
        with pytest.raises(ValueError):
            read_spectrum_csv(path)

    @pytest.mark.parametrize("row, cause", [("1,abc", "abc"), ("0,1.0,2", "3 cells, expected 2")])
    def test_bad_row_names_file_and_line(self, tmp_path, row, cause):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# e_min=0.0 e_max=3000.0 dwell=1.0 kind=template\nchannel,counts\n"
            f"0,1.0\n{row}\n"
        )
        with pytest.raises(ValueError, match=rf"bad\.csv:4: .*{cause}"):
            read_spectrum_csv(path)

    def test_write_is_deterministic(self, tmp_path):
        s = make_spectrum(np.linspace(0, 7, 16) ** 1.5)
        write_spectrum_csv(s, tmp_path / "a.csv")
        write_spectrum_csv(s, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("header, cause", [
        ("e_min=0.0 e_max=30.0 dwell=1.0 kind=bogus", "'bogus' is not a valid SpectrumKind"),
        ("e_min=0.0 e_max=30.0 junk dwell=1.0 kind=template", "bad header"),
        ("e_min=abc e_max=30.0 dwell=1.0 kind=template", "could not convert string to float"),
        ("e_min=0.0 e_max=30.0 dwell=1.0", "header missing field 'kind'"),
    ])
    def test_bad_header_names_the_file(self, tmp_path, header, cause):
        path = tmp_path / "bad.csv"
        path.write_text(f"# {header}\nchannel,counts\n0,1.0\n")
        with pytest.raises(ValueError, match=rf"bad\.csv:1: .*{cause}"):
            read_spectrum_csv(path)

    def test_rows_may_come_in_any_channel_order(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# e_min=0.0 e_max=30.0 dwell=1.0 kind=template\nchannel,counts\n"
                        "2,5.0\n0,3.0\n1,4.0\n")
        assert read_spectrum_csv(path).counts.tolist() == [3.0, 4.0, 5.0]

    def test_channel_gap_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# e_min=0.0 e_max=30.0 dwell=1.0 kind=template\nchannel,counts\n"
                        "0,3.0\n2,4.0\n")
        with pytest.raises(ValueError, match=r"s\.csv: channel indices are not contiguous"):
            read_spectrum_csv(path)

    def test_negative_count_names_the_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# e_min=0.0 e_max=30.0 dwell=1.0 kind=template\nchannel,counts\n0,-1.0\n")
        with pytest.raises(ValueError, match=r"s\.csv: counts must be non-negative"):
            read_spectrum_csv(path)


# Finite non-negative doubles, subnormals and the largest double included.
COUNTS = st.floats(min_value=0.0, max_value=sys.float_info.max, allow_subnormal=True)


@given(st.lists(COUNTS, min_size=1, max_size=40))
@example([5e-324, 1.7976931348623157e308, 0.1, 0.0])
@settings(max_examples=60, deadline=None)
def test_spectrum_csv_round_trip_is_value_exact(counts):
    s = make_spectrum(counts, e_min=0.1, e_max=2999.9, dwell=86400.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        write_spectrum_csv(s, path)
        back = read_spectrum_csv(path)
    assert back.counts.tobytes() == s.counts.tobytes()
    assert (back.calibration, back.dwell_s, back.kind) == (s.calibration, s.dwell_s, s.kind)


class TestCsvTable:
    def test_returns_comments_names_rows_and_first_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# one\n# two\na,b,c\n1,2.5,3\n4,5,6e-3\n")
        comments, names, rows, first_line = read_csv_table(path, header=True)
        assert comments == ["# one", "# two"]
        assert names == ["a", "b", "c"]
        assert rows.dtype == np.float64
        assert rows.tolist() == [[1.0, 2.5, 3.0], [4.0, 5.0, 0.006]]
        assert first_line == 4

    def test_without_header_every_line_is_a_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,4\n")
        comments, names, rows, first_line = read_csv_table(path, 2)
        assert (comments, names, first_line) == ([], [], 1)
        assert rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("text, header", [("", False), ("", True), ("# c\n", True),
                                              ("# c\na,b\n", True)])
    def test_no_rows_gives_an_empty_table(self, tmp_path, text, header):
        # Warnings are errors in this suite: np.loadtxt's "no data" warning must not escape.
        path = tmp_path / "t.csv"
        path.write_text(text)
        assert read_csv_table(path, 2, header=header)[2].shape == (0, 2)

    @pytest.mark.parametrize("rows, line, cause", [
        ("1,2\n3\n", 4, "1 cells, expected 2"),
        ("1,2\n3,4,5\n", 4, "3 cells, expected 2"),
        ("1,2,3\n4,5,6\n", 3, "3 cells, expected 2"),
        ("1,2\n3,x\n", 4, "cell 2 is not a number: 'x'"),
        ("1,\n", 3, "cell 2 is not a number: ''"),
        ("1_0,2\n", 3, "cell 1 is not a number: '1_0'"),
        ("1,2\n\n\n3,4\n  \n", 7, "1 cells, expected 2"),
    ], ids=["short", "long", "all-wide", "letter", "empty-cell", "separator", "blank-lines"])
    def test_bad_row_names_file_and_line(self, tmp_path, rows, line, cause):
        path = tmp_path / "t.csv"
        path.write_text("# c\na,b\n" + rows)
        with pytest.raises(ValueError) as info:
            read_csv_table(path, header=True)
        assert str(info.value) == f"{path}:{line}: {cause}"

    def test_empty_lines_are_skipped_and_rows_keep_their_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# c\n1,2\n\n3,4\n\n")
        _, _, rows, first_line = read_csv_table(path, 2)
        assert rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert csv_rows(path, first_line) == [(2, "1,2"), (4, "3,4")]
