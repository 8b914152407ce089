
import math
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammasort import spectra
from gammasort.spectra import (
    EnergyCalibration,
    Spectrum,
    SpectrumKind,
    default_calibration,
    read_csv_table,
    read_spectrum_csv,
    rebin,
    total_counts,
    write_csv_table,
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
        assert cal.bin_centers()[0] == pytest.approx(1.46484375, abs=1e-12)

    def test_bin_center_of_last_channel(self):
        cal = default_calibration()
        assert cal.bin_centers()[1023] == pytest.approx(2998.53515625, abs=1e-12)

    def test_unit_width_calibration(self):
        cal = EnergyCalibration(0.0, 1000.0, 1000)
        assert cal.bin_centers()[499] == pytest.approx(499.5)

    def test_energy_strictly_increasing_in_channel(self):
        cal = EnergyCalibration(10.0, 2500.0, 777)
        assert np.all(np.diff(cal.bin_centers()) > 0)


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

    @pytest.mark.parametrize("table", ["channel\n0\n", "channel,counts,extra\n0,1.0,2\n",
                                       "counts,channel\n0,1.0\n"])
    def test_other_columns_are_rejected(self, tmp_path, table):
        path = tmp_path / "bad.csv"
        path.write_text("# e_min=0.0 e_max=3000.0 dwell=1.0 kind=template\n" + table)
        with pytest.raises(ValueError, match=r"bad\.csv:2: columns \[.*\], not channel and counts$"):
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
    def test_returns_comments_names_and_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# one\n# two\na,b,c\n1,2.5,3\n4,5,6e-3\n")
        comments, names, rows = read_csv_table(path)
        assert comments == ["# one", "# two"]
        assert names == ["a", "b", "c"]
        assert rows.dtype == np.float64
        assert rows.tolist() == [[1.0, 2.5, 3.0], [4.0, 5.0, 0.006]]

    @pytest.mark.parametrize("text, width", [("", 0), ("# c\n", 0), ("a,b\n", 2),
                                             ("# c\na,b\n", 2)])
    def test_no_rows_gives_an_empty_table(self, tmp_path, text, width):
        # Warnings are errors in this suite: reading no rows must not warn.
        path = tmp_path / "t.csv"
        path.write_text(text)
        assert read_csv_table(path)[2].shape == (0, width)

    @pytest.mark.parametrize("rows, line, cause", [
        ("1,2\n3\n", 4, "1 cells, expected 2"),
        ("1,2\n3,4,5\n", 4, "3 cells, expected 2"),
        ("1,2,3\n4,5,6\n", 3, "3 cells, expected 2"),
        ("1,2\n3,x\n", 4, "cell 2 is not a number: 'x'"),
        ("1,\n", 3, "cell 2 is not a number: ''"),
        ("1_0,2\n", 3, "cell 1 is not a number: '1_0'"),
        ("1,2\n\n\n3,4\n  \n", 7, "1 cells, expected 2"),
        ("1,2\n3,nan\n", 4, "cell 2 is not a finite number: 'nan'"),
        ("1e999,2\n", 3, "cell 1 is not a finite number: '1e999'"),
        ("1,2\n1,\u0661\n", 4, "cell 2 is not a number: '\u0661'"),
        ("\uff11,2\n", 3, "cell 1 is not a number: '\uff11'"),
    ], ids=["short", "long", "all-wide", "letter", "empty-cell", "separator", "blank-lines",
            "nan", "overflow", "arabic-indic-digit", "fullwidth-digit"])
    def test_bad_row_names_file_and_line(self, tmp_path, rows, line, cause):
        path = tmp_path / "t.csv"
        path.write_text("# c\na,b\n" + rows)
        with pytest.raises(ValueError) as info:
            read_csv_table(path)
        assert str(info.value) == f"{path}:{line}: {cause}"

    @pytest.mark.parametrize("text, line", [
        (b"# c\na,b\n1,2\n1,\xff\n", 4),
        (b"# c\xff\na,b\n1,2\n", 1),
        (b"# c\na,acc_\xff\n1,2\n", 2),
    ], ids=["cell", "comment", "header"])
    def test_a_byte_that_does_not_decode_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        with pytest.raises(ValueError) as info:
            read_csv_table(path)
        assert str(info.value) == f"{path}:{line}: a byte does not decode"

    def test_empty_lines_are_skipped_and_rows_keep_their_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# c\na,b\n1,2\n\n3,4\n\n")
        assert read_csv_table(path)[2].tolist() == [[1.0, 2.0], [3.0, 4.0]]
        path.write_text("# c\na,b\n1,2\n\n3\n\n")
        with pytest.raises(ValueError) as info:
            read_csv_table(path)
        assert str(info.value) == f"{path}:5: 1 cells, expected 2"

    def test_a_table_without_rows_keeps_its_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv_table(path, ["a", "b"], [], comments=("c",))
        assert path.read_text() == "# c\na,b\n"
        comments, names, rows = read_csv_table(path)
        assert (comments, names, rows.shape) == (["# c"], ["a", "b"], (0, 2))


# Every finite double (signed zeros, subnormals and the largest included), as a
# Python float or np.float64, and integers a double holds exactly, as np.int64.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
CELLS = st.one_of(FINITE, FINITE.map(np.float64), st.integers(-(2**53), 2**53).map(np.int64))


@given(
    rows=st.integers(1, 4).flatmap(
        lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=5)
    ),
    comment=st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
)
@example(rows=[[-0.0, 5e-324, 1.7976931348623157e308],
               [np.float64(-0.0), np.float64(5e-324), np.int64(-7)]], comment="series=A")
@settings(max_examples=60, deadline=None)
def test_csv_table_round_trip_is_value_exact(rows, comment):
    width = len(rows[0]) if rows else 2
    names = [f"c{k}" for k in range(width)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv_table(path, names, rows, comments=(comment,))
        comments, back_names, back = read_csv_table(path)
    expected = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    assert back.tobytes() == expected.tobytes()
    assert (comments, back_names) == ([f"# {comment}"], names)


def count_lines(at, cell=None):
    """70 rows of three integer cells, the middle one of row ``at`` replaced by ``cell``."""
    lines = [f"{i % 5},{7 * i}.0,{3 * i}" for i in range(70)]
    if cell is not None:
        lines[at] = f"{at % 5},{cell},{3 * at}"
    return lines


def joined(lines, end="\n"):
    return end.join(lines) + end


def with_line(at, edit):
    lines = count_lines(at)
    lines[at : at + 1] = edit(lines[at])
    return joined(lines)


# Table texts a hand-edited CSV may hold: other spellings of a number,
# other line ends, and rows of the wrong width.
TABLE_TEXTS = {
    **{f"cell {cell!r}": lambda at, cell=cell: joined(count_lines(at, cell)) for cell in
       ["1.", ".0", "1.00", "1.0.0", "-0.0", "+1.0", "1e3", " 1.0", "1234567890123456"]},
    "trailing comma": lambda at: with_line(at, lambda line: [line + ","]),
    "crlf endings": lambda at: joined(count_lines(at), "\r\n"),
    "blank line": lambda at: with_line(at, lambda line: ["", line]),
    "no final newline": lambda at: joined(count_lines(at))[:-1],
    "short row": lambda at: with_line(at, lambda line: [line.rsplit(",", 1)[0]]),
    "cell moved to the next row": lambda at: with_line(
        at, lambda line: [line.rsplit(",", 1)[0], f"{line.rsplit(',', 1)[1]},{line}"]
    ),
}


def python_rows(text, first_line, width):
    """The rows of ``text`` from ``first_line`` on, each cell as Python's
    ``float`` reads it, or the line number of the first row that is not
    ``width`` numbers."""
    rows = []
    for lineno, line in enumerate(text.splitlines()[first_line - 1 :], first_line):
        cells = line.split(",") if line else []
        try:
            if cells and len(cells) != width:
                raise ValueError(line)
            rows += [[float(cell) for cell in cells]] if cells else []
        except ValueError:
            return lineno
    return np.array(rows, dtype=np.float64)


@pytest.mark.parametrize("at", [0, 69], ids=["first row", "last row"])
@pytest.mark.parametrize("text", TABLE_TEXTS.values(), ids=TABLE_TEXTS.keys())
def test_table_texts_read_as_python_floats(tmp_path, text, at):
    """Each text reads bit for bit as ``float`` reads its cells, or is refused
    naming the line of its first bad row."""
    path = tmp_path / "t.csv"
    path.write_bytes(("# c\na,b,c\n" + text(at)).encode())
    expected = python_rows(path.read_text(), 3, 3)
    if isinstance(expected, int):
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{expected}: "):
            read_csv_table(path)
    else:
        back = read_csv_table(path)[2]
        assert back.shape == expected.shape == (70, 3)
        assert back.tobytes() == expected.tobytes()


def fsum_blocks(counts, factor):
    """``rebin_counts``' sums, one ``math.fsum`` per block of ``factor`` channels."""
    counts = np.asarray(counts)
    merged = [math.fsum(block.tolist()) for block in counts.reshape(-1, factor)]
    return np.array(merged).reshape(counts.shape[:-1] + (-1,))


# Doubles from about 1e-300 to 1e300 of either sign, so blocks cancel, and
# the edges of that range; 64 of them cannot overflow a sum.
REBIN_VALUES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0, 0.1, -0.0]),
)


@st.composite
def rebin_inputs(draw):
    n_channels = draw(st.integers(min_value=1, max_value=64))
    factor = draw(st.sampled_from([f for f in range(1, n_channels + 1) if n_channels % f == 0]))
    shape = draw(st.sampled_from([(n_channels,), (1, n_channels), (3, n_channels)]))
    size = math.prod(shape)
    counts = np.array(draw(st.lists(REBIN_VALUES, min_size=size, max_size=size))).reshape(shape)
    return counts, factor, draw(st.integers(min_value=1, max_value=2 * n_channels))


@given(rebin_inputs())
@example((np.array([1e300, 1.0, -1e300, 1e-300]), 4, 1))
@example((np.array([[0.1] * 8, [1e300, -1e300] * 4]), 2, 3))
@settings(max_examples=300, deadline=None)
def test_rebin_counts_sums_each_block_with_fsum(case):
    # Chunks as small as one value make a row span several chunks.
    counts, factor, chunk = case
    cal = EnergyCalibration(0.0, 3000.0, counts.shape[-1])
    with mock.patch.object(spectra, "_FSUM_VALUES", chunk):
        merged, merged_cal = spectra.rebin_counts(counts, cal, factor)
    expected = counts if factor == 1 else fsum_blocks(counts, factor)
    assert merged.shape == expected.shape
    assert merged.tobytes() == expected.tobytes()
    assert merged_cal == EnergyCalibration(0.0, 3000.0, counts.shape[-1] // factor)


def test_rebin_counts_of_a_template_matrix_spans_chunks():
    counts = np.random.default_rng(19).gamma(0.3, 50.0, size=(70, 1024))
    merged, _ = spectra.rebin_counts(counts, default_calibration(), 4)
    assert counts.size > spectra._FSUM_VALUES
    assert merged.tobytes() == fsum_blocks(counts, 4).tobytes()


SAMPLED, TEMPLATE = SpectrumKind.SAMPLED_REALIZATION, SpectrumKind.EXPECTED_TEMPLATE
# Rows of a 1024-channel matrix in checked_counts' first block and in a later one.
FIRST_BLOCK_ROW = 0
LATER_BLOCK_ROW = 3 * spectra._CHECK_BLOCK_VALUES // 1024 + 5


def sampled_matrix(rows=LATER_BLOCK_ROW + 20):
    return np.random.default_rng(7).poisson(0.5, size=(rows, 1024)).astype(float)


def counts_error(counts, kind=SAMPLED, dwell=1.0, ndim=2):
    with pytest.raises(ValueError) as err:
        spectra.checked_counts(counts, ndim, counts.shape[-1], kind, dwell)
    return str(err.value)


class TestCheckedCounts:
    @pytest.mark.parametrize("row", [FIRST_BLOCK_ROW, LATER_BLOCK_ROW], ids=["first", "later"])
    @pytest.mark.parametrize(
        "value, kind, message",
        [
            (np.nan, SAMPLED, "counts must be finite"),
            (np.inf, TEMPLATE, "counts must be finite"),
            (-np.inf, SAMPLED, "counts must be finite"),
            (-1.0, TEMPLATE, "counts must be non-negative"),
            (-1.0, SAMPLED, "counts must be non-negative"),
            (0.5, SAMPLED, "sampled realizations must have integer-valued counts"),
        ],
    )
    def test_each_defect_in_any_block_is_named(self, row, value, kind, message):
        counts = sampled_matrix()
        counts[row, 300] = value
        assert counts_error(counts, kind) == message

    def test_a_defect_at_the_end_of_a_long_spectrum(self):
        # One spectrum is one row, checked as one block however long it is.
        counts = np.zeros(2 * spectra._CHECK_BLOCK_VALUES)
        counts[-1] = np.nan
        assert counts_error(counts, ndim=1) == "counts must be finite"

    @pytest.mark.parametrize(
        "first, later, message",
        [
            (-1.0, np.nan, "counts must be finite"),
            (0.5, np.inf, "counts must be finite"),
            (0.5, -1.0, "counts must be non-negative"),
        ],
    )
    def test_the_first_defect_in_check_order_is_named(self, first, later, message):
        counts = sampled_matrix()
        counts[FIRST_BLOCK_ROW, 0] = first
        counts[LATER_BLOCK_ROW, 1023] = later
        assert counts_error(counts) == message

    def test_fractional_template_counts_pass(self):
        counts = sampled_matrix() + 0.25
        assert spectra.checked_counts(counts, 2, 1024, TEMPLATE, 1.0).tobytes() == counts.tobytes()

    def test_negative_zero_passes(self):
        counts = sampled_matrix()
        counts[LATER_BLOCK_ROW, 5] = -0.0
        assert spectra.checked_counts(counts, 2, 1024, SAMPLED, 1.0).tobytes() == counts.tobytes()

    @pytest.mark.parametrize("dwell", [0.0, -1.0, np.nan])
    def test_a_bad_dwell_with_good_counts_is_named(self, dwell):
        assert counts_error(sampled_matrix(), dwell=dwell) == f"dwell must be positive, got {dwell}"

    def test_bad_counts_are_named_before_a_bad_dwell(self):
        counts = sampled_matrix()
        counts[LATER_BLOCK_ROW, 0] = -2.0
        assert counts_error(counts, dwell=0.0) == "counts must be non-negative"

    @pytest.mark.parametrize("view", [False, True], ids=["array", "column view"])
    def test_copy_is_read_only_and_input_is_untouched(self, view):
        table = np.hstack([np.arange(LATER_BLOCK_ROW + 20.0)[:, None], sampled_matrix()])
        counts = table[:, 1:] if view else table[:, 1:].copy()
        before = counts.copy()
        checked = spectra.checked_counts(counts, 2, 1024, SAMPLED, 1.0)
        assert checked.tobytes() == before.tobytes() and counts.tobytes() == before.tobytes()
        assert not checked.flags.writeable and checked.flags.c_contiguous
        assert counts.flags.writeable and not np.shares_memory(checked, counts)


def reference_counts_error(counts, kind):
    """The whole-array checks of ``checked_counts``, in their order, or None."""
    if not np.isfinite(counts).all():
        return "counts must be finite"
    if (counts < 0).any():
        return "counts must be non-negative"
    if kind is SAMPLED and (counts != np.floor(counts)).any():
        return "sampled realizations must have integer-valued counts"
    return None


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=9),
    st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.5])),
        max_size=3,
    ),
    st.sampled_from([SAMPLED, TEMPLATE]),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_checked_counts_names_what_the_whole_array_checks_name(rows, width, defects, kind, block):
    # Blocks as small as one row make defects land in any block.
    counts = np.arange(rows * width, dtype=float).reshape(rows, width) % 3
    for at, value in defects:
        counts.flat[at % counts.size] = value
    with mock.patch.object(spectra, "_CHECK_BLOCK_VALUES", block):
        try:
            checked, error = spectra.checked_counts(counts, 2, width, kind, 1.0), None
        except ValueError as err:
            checked, error = None, str(err)
    assert error == reference_counts_error(counts, kind)
    assert checked is None or checked.tobytes() == counts.tobytes()


def frozen(counts):
    """``counts`` as an array that owns its data and is read-only."""
    counts = np.array(counts, dtype=float)
    counts.setflags(write=False)
    return counts


COUNTS_DEFECTS = [
    (np.nan, SAMPLED, "counts must be finite"),
    (np.inf, TEMPLATE, "counts must be finite"),
    (-np.inf, SAMPLED, "counts must be finite"),
    (-1.0, TEMPLATE, "counts must be non-negative"),
    (-1.0, SAMPLED, "counts must be non-negative"),
    (0.5, SAMPLED, "sampled realizations must have integer-valued counts"),
]


class TestFrozenCounts:
    """A frozen input is checked in place and kept; every other input is copied."""

    @pytest.mark.parametrize("row", [FIRST_BLOCK_ROW, LATER_BLOCK_ROW], ids=["first", "later"])
    @pytest.mark.parametrize("value, kind, message", COUNTS_DEFECTS)
    def test_each_defect_in_any_block_is_named(self, row, value, kind, message):
        counts = sampled_matrix()
        counts[row, 300] = value
        assert counts_error(frozen(counts), kind) == message

    @pytest.mark.parametrize("value, kind, message", COUNTS_DEFECTS)
    def test_each_defect_in_a_frozen_table_view_is_named(self, value, kind, message):
        table = np.hstack([np.zeros((LATER_BLOCK_ROW + 20, 1)), sampled_matrix()])
        table[LATER_BLOCK_ROW, 301] = value
        table.setflags(write=False)
        assert counts_error(table[:, 1:], kind) == message

    def test_a_defect_at_the_end_of_a_long_spectrum(self):
        counts = np.zeros(2 * spectra._CHECK_BLOCK_VALUES)
        counts[-1] = np.nan
        assert counts_error(frozen(counts), ndim=1) == "counts must be finite"

    @pytest.mark.parametrize(
        "first, later, message",
        [
            (-1.0, np.nan, "counts must be finite"),
            (0.5, np.inf, "counts must be finite"),
            (0.5, -1.0, "counts must be non-negative"),
        ],
    )
    def test_the_first_defect_in_check_order_is_named(self, first, later, message):
        counts = sampled_matrix()
        counts[FIRST_BLOCK_ROW, 0] = first
        counts[LATER_BLOCK_ROW, 1023] = later
        assert counts_error(frozen(counts)) == message

    @pytest.mark.parametrize("dwell", [0.0, -1.0, np.nan])
    def test_a_bad_dwell_with_good_counts_is_named(self, dwell):
        message = counts_error(frozen(sampled_matrix()), dwell=dwell)
        assert message == f"dwell must be positive, got {dwell}"

    def test_bad_counts_are_named_before_a_bad_dwell(self):
        counts = sampled_matrix()
        counts[LATER_BLOCK_ROW, 0] = -2.0
        assert counts_error(frozen(counts), dwell=0.0) == "counts must be non-negative"

    @pytest.mark.parametrize("kind", [SAMPLED, TEMPLATE])
    def test_a_frozen_array_is_kept(self, kind):
        counts = frozen(sampled_matrix())
        checked = spectra.checked_counts(counts, 2, 1024, kind, 1.0)
        assert checked is counts and np.shares_memory(checked, counts)
        assert not checked.flags.writeable

    def test_a_view_of_a_frozen_table_is_kept(self):
        table = np.hstack([np.arange(LATER_BLOCK_ROW + 20.0)[:, None], sampled_matrix()])
        table.setflags(write=False)
        checked = spectra.checked_counts(table[:, 1:], 2, 1024, SAMPLED, 1.0)
        assert checked.base is table and checked.tobytes() == table[:, 1:].tobytes()

    def test_a_frozen_spectrum_is_kept(self):
        counts = frozen(np.arange(16.0))
        assert make_spectrum(counts, SAMPLED).counts is counts

    def test_a_read_only_view_of_a_writeable_array_is_copied(self):
        table = np.hstack([np.zeros((LATER_BLOCK_ROW + 20, 1)), sampled_matrix()])
        view = table[:, 1:]
        view.setflags(write=False)
        checked = spectra.checked_counts(view, 2, 1024, SAMPLED, 1.0)
        assert not np.shares_memory(checked, table) and checked.tobytes() == view.tobytes()
        assert not checked.flags.writeable and checked.flags.c_contiguous
        table[0, 1] = 99.0  # the base can still be written; the copy cannot change
        assert checked[0, 0] != 99.0

    def test_a_writeable_array_deeper_in_the_base_chain_makes_a_copy(self):
        owner = sampled_matrix()
        middle = owner[:]
        middle.setflags(write=False)
        view = middle[1:]
        view.setflags(write=False)
        assert not np.shares_memory(spectra.checked_counts(view, 2, 1024, SAMPLED, 1.0), owner)

    def test_a_read_only_array_over_another_buffer_is_copied(self):
        counts = np.frombuffer(np.arange(8.0).tobytes(), dtype=np.float64)
        assert not counts.flags.writeable
        checked = spectra.checked_counts(counts, 1, 8, SAMPLED, 1.0)
        assert not np.shares_memory(checked, counts) and checked.tobytes() == counts.tobytes()

    def test_a_frozen_array_of_another_dtype_is_copied_as_float64(self):
        counts = np.arange(8, dtype=np.int32)
        counts.setflags(write=False)
        checked = spectra.checked_counts(counts, 1, 8, SAMPLED, 1.0)
        assert checked.dtype == np.float64 and np.array_equal(checked, counts)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=9),
    st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.5])),
        max_size=3,
    ),
    st.sampled_from([SAMPLED, TEMPLATE]),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_frozen_counts_are_named_as_the_whole_array_checks_name(rows, width, defects, kind, block):
    # The same defects as a copied input, in blocks as small as one row.
    counts = np.arange(rows * width, dtype=float).reshape(rows, width) % 3
    for at, value in defects:
        counts.flat[at % counts.size] = value
    counts.setflags(write=False)
    with mock.patch.object(spectra, "_CHECK_BLOCK_VALUES", block):
        try:
            checked, error = spectra.checked_counts(counts, 2, width, kind, 1.0), None
        except ValueError as err:
            checked, error = None, str(err)
    assert error == reference_counts_error(counts, kind)
    assert checked is None or checked is counts
