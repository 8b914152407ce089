import math
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gammasort import cli, nucleardata
from gammasort.ensemble import TaskKind, standard_grid, template_dataset
from gammasort.forward_model import (
    DEFAULT_BACKGROUND_CPS,
    DU_EMISSION_BQ_PER_CM,
    DU_EMISSION_LINES,
    FWHM_TO_SIGMA,
    GAUSSIAN_TRUNCATION_SIGMA,
    TEMPLATE_DWELL_S,
    _SHIELD_TABLES,
    DetectorModel,
    Shielding,
    ShieldMaterial,
    SourceConfig,
    _erf,
    attenuation_factor,
    background_template,
    bare_shielding,
    build_template,
    compton_edge,
    default_detector,
    default_shielding,
    geometric_fraction,
    isotope_by_name,
    line_response,
    sphere_area_cm2,
    template_matrix,
)
from gammasort.spectra import EnergyCalibration, SpectrumKind, total_counts

DETECTOR = default_detector()
ALL_ISOTOPES = ("Cesium", "Cobalt", "Barium", "Selenium", "Iridium")


def cs_config(distance_m=10.0, shielding=None, background=False, activity=1.15e8):
    return SourceConfig(
        isotope=isotope_by_name("Cesium"),
        activity_bq=activity,
        distance_m=distance_m,
        shielding=shielding or bare_shielding(),
        include_background=background,
    )


def channel_of(cal, energy_kev):
    """Index of the calibration bin that holds ``energy_kev``."""
    return int((energy_kev - cal.e_min) // cal.channel_width)


class TestAttenuation:
    def test_bare_is_transparent(self):
        for energy in (30.0, 662.0, 2000.0):
            assert attenuation_factor(bare_shielding(), energy) == 1.0

    def test_zero_thickness_is_transparent(self):
        steel = default_shielding("Steel", thickness_cm=0.0)
        assert attenuation_factor(steel, 662.0) == 1.0

    def test_steel_at_cs137_line(self):
        # bundled table holds mu = 0.5816 /cm at 662 keV
        steel = default_shielding("Steel")
        assert steel.thickness_cm == 1.0
        value = attenuation_factor(steel, 662.0)
        assert value == pytest.approx(math.exp(-0.5816), rel=1e-12)
        assert value == pytest.approx(0.559, abs=5e-4)

    def test_out_of_table_energy_rejected(self):
        steel = default_shielding("Steel")
        with pytest.raises(ValueError):
            attenuation_factor(steel, 5.0)
        with pytest.raises(ValueError):
            attenuation_factor(steel, 3500.0)

    @given(
        material=st.sampled_from(["Concrete", "Steel", "DepletedUranium"]),
        energy=st.floats(10.0, 3000.0),  # the bundled tables' range
        thicknesses=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=6).map(sorted),
    )
    @example(material="Concrete", energy=356.0, thicknesses=[0.0, 1.0, 2.0, 5.0, 10.0, 25.0])
    def test_monotone_nonincreasing_in_thickness(self, material, energy, thicknesses):
        values = [
            attenuation_factor(default_shielding(material, thickness_cm=t), energy)
            for t in thicknesses
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_loglog_interpolation_between_rows(self):
        steel = default_shielding("Steel", thickness_cm=1.0)
        # between the 600 and 662 keV rows, mu must fall between the row values
        mid = attenuation_factor(steel, 630.0)
        assert math.exp(-0.6066) < mid < math.exp(-0.5816)

    def test_default_thicknesses(self):
        assert default_shielding("Concrete").thickness_cm == 5.0
        assert default_shielding("DepletedUranium").thickness_cm == 0.5

    def test_each_shield_material_has_one_bundled_table(self):
        # The ShieldingID classes are the enum's values in its order.
        assert TaskKind.SHIELDING_ID.class_names == ("Bare", "Concrete", "Steel", "DepletedUranium")
        shields = [m for m in ShieldMaterial if m is not ShieldMaterial.BARE]
        assert list(_SHIELD_TABLES) == shields
        for material in shields:
            shielding = default_shielding(material)
            assert shielding.thickness_cm == _SHIELD_TABLES[material][1]
            assert shielding.energies_kev.size >= 2


class TestComptonEdge:
    def test_cs137_edge(self):
        energy = 661.7
        ratio = 2.0 * energy / 511.0
        assert compton_edge(energy) == pytest.approx(energy * ratio / (1 + ratio), rel=1e-12)
        assert compton_edge(energy) == pytest.approx(477.3, abs=0.1)

    def test_annihilation_line_edge(self):
        assert compton_edge(511.0) == pytest.approx(511.0 * 2.0 / 3.0, rel=1e-12)

    def test_vanishes_at_low_energy(self):
        assert compton_edge(1e-6) < 1e-8

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            compton_edge(0.0)


class TestLineResponse:
    def test_zero_detections_gives_zero_spectrum(self):
        counts = line_response(DETECTOR, 661.7, 0.0)
        assert math.fsum(counts) == 0.0

    @given(
        energy=st.floats(1.0, 2999.0),
        resolution=st.floats(0.0, 1.0, exclude_min=True),
        n_channels=st.sampled_from([8, 16, 64, 256, 1024]),
    )
    @example(energy=81.0, resolution=0.075, n_channels=1024)
    @example(energy=356.0, resolution=0.075, n_channels=1024)
    @example(energy=661.7, resolution=0.075, n_channels=1024)
    @example(energy=1332.5, resolution=0.075, n_channels=1024)
    @example(energy=136.0, resolution=0.02, n_channels=64)  # refused: the whole photopeak
    @example(energy=383.8, resolution=0.075, n_channels=16)  # refused: part of it
    @example(energy=661.7, resolution=0.005, n_channels=1024)
    @example(energy=661.7, resolution=5e-324, n_channels=1024)  # refused: every edge at +-inf
    @settings(deadline=None)  # timing is not under test, and a loaded host can stall one example
    def test_counts_conserved_within_tenth_percent(self, energy, resolution, n_channels):
        # Only the Gaussian tails beyond the +-6 sigma truncation may be lost,
        # so the peak's truncated span must lie inside the calibration.  The
        # truncation zeroes channels by their centre, so a peak narrower than
        # a channel can lose more; then the line is refused, and only then.
        cal = EnergyCalibration(0.0, 3000.0, n_channels)
        detector = DetectorModel(cal, resolution_fwhm_frac_662=resolution)
        sigma = detector.fwhm_kev(energy) * FWHM_TO_SIGMA
        reach = GAUSSIAN_TRUNCATION_SIGMA * sigma
        assume(cal.e_min <= energy - reach and energy + reach <= cal.e_max)
        try:
            counts = line_response(detector, energy, 1e6)
        except ValueError as err:
            assert str(err).startswith(f"line at {energy} keV: its photopeak ")
            # The photopeak mass of the channels whose centre lies beyond 6 sigma.
            edges = cal.bin_edges()
            with np.errstate(over="ignore"):
                z = (edges - energy) / (sigma * math.sqrt(2.0))
            lost = math.fsum(
                0.5 * (math.erf(z[i + 1]) - math.erf(z[i]))
                for i in range(n_channels)
                if abs((edges[i] + edges[i + 1]) / 2.0 - energy) > reach
            )
            assert (1.0 - detector.compton_fraction) * lost > 1e-3 - 1e-9
        else:
            assert math.fsum(counts) == pytest.approx(1e6, rel=1e-3)

    def test_photopeak_centroid_channel(self):
        # bin containing 661.7 keV on the default calibration
        counts = line_response(DETECTOR, 661.7, 1e6)
        assert int(np.argmax(counts)) == 225

    def test_line_above_range_rejected(self):
        with pytest.raises(ValueError):
            line_response(DETECTOR, 3000.0, 1.0)

    @pytest.mark.parametrize("energy", [81.0, 356.0])
    def test_line_below_range_rejected(self, energy):
        # Such a line's shape would be all zeros: the template would silently lack it.
        detector = DetectorModel(EnergyCalibration(500.0, 3000.0, 256))
        with pytest.raises(ValueError) as info:
            line_response(detector, energy, 1000.0)
        assert str(info.value) == (
            f"line at {energy} keV is outside calibration range [500.0, 3000.0] keV"
        )

    def test_continuum_extends_only_to_compton_edge(self):
        counts = line_response(DETECTOR, 661.7, 1e6)
        cal = DETECTOR.calibration
        edge_channel = channel_of(cal, compton_edge(661.7))
        sigma = DETECTOR.fwhm_kev(661.7) / 2.3548
        below_peak = channel_of(cal, 661.7 - 6.5 * sigma)
        gap = counts[edge_channel + 2 : below_peak]
        assert np.all(gap == 0.0)

    def test_scales_linearly_with_detections(self):
        one = line_response(DETECTOR, 400.7, 1000.0)
        two = line_response(DETECTOR, 400.7, 2000.0)
        assert np.array_equal(two, 2.0 * one)


class TestBackgroundTemplate:
    def test_total_matches_configured_rate(self):
        bg = background_template(DETECTOR, 1.0)
        assert math.fsum(bg) == pytest.approx(300.0, rel=1e-3)

    def test_scales_linearly_with_dwell(self):
        one = background_template(DETECTOR, 1.0)
        ten = background_template(DETECTOR, 10.0)
        assert np.allclose(ten, 10.0 * one, rtol=1e-12)

    def test_cuts_off_above_thallium_line(self):
        bg = background_template(DETECTOR, 1.0)
        cal = DETECTOR.calibration
        first_dead = channel_of(cal, 2614.0) + 1
        assert np.all(bg[first_dead:] == 0.0)
        assert bg[0] > 0.0

    def test_rate_irrelevant_when_background_disabled(self):
        config = cs_config(background=False)
        a = build_template(config, DETECTOR, 1.0, background_cps=300.0)
        b = build_template(config, DETECTOR, 1.0, background_cps=9999.0)
        assert np.array_equal(a.counts, b.counts)

    def test_background_added_when_enabled(self):
        on = build_template(cs_config(background=True), DETECTOR, 1.0)
        off = build_template(cs_config(background=False), DETECTOR, 1.0)
        assert total_counts(on) > total_counts(off) + 290.0


class TestBuildTemplate:
    def test_doubling_activity_doubles_every_channel(self):
        base = build_template(cs_config(activity=1.15e8), DETECTOR, 1.0)
        double = build_template(cs_config(activity=2.3e8), DETECTOR, 1.0)
        assert np.array_equal(double.counts, 2.0 * base.counts)

    def test_doubling_distance_quarters_every_channel(self):
        near = build_template(cs_config(distance_m=10.0), DETECTOR, 1.0)
        far = build_template(cs_config(distance_m=20.0), DETECTOR, 1.0)
        assert np.array_equal(far.counts, 0.25 * near.counts)

    def test_linear_in_dwell(self):
        one = build_template(cs_config(), DETECTOR, 1.0)
        day = build_template(cs_config(), DETECTOR, 86400.0)
        assert np.allclose(day.counts, 86400.0 * one.counts, rtol=1e-12)

    def test_cesium_has_no_counts_above_channel_600(self):
        template = build_template(cs_config(distance_m=10.0), DETECTOR, 86400.0)
        assert np.all(template.counts[600:] == 0.0)
        assert total_counts(template) > 0.0

    def test_kind_is_template(self):
        assert build_template(cs_config(), DETECTOR, 1.0).kind is SpectrumKind.EXPECTED_TEMPLATE

    def test_bare_cesium_rate_near_two_hundred_cps(self):
        template = build_template(cs_config(distance_m=10.0), DETECTOR, 1.0)
        assert 150.0 < total_counts(template) < 260.0

    def test_argmax_lands_on_a_line_centroid(self):
        cal = DETECTOR.calibration
        for name in ALL_ISOTOPES:
            isotope = isotope_by_name(name)
            for distance in (10.0, 17.0):
                config = SourceConfig(isotope, 1.15e8, distance, bare_shielding())
                template = build_template(config, DETECTOR, 1.0)
                peak = int(np.argmax(template.counts))
                centroids = [channel_of(cal, e) for e, _ in isotope.lines]
                assert min(abs(peak - c) for c in centroids) <= 2, name

    def test_channels_beyond_5_fwhm_above_top_line_are_zero(self):
        cal = DETECTOR.calibration
        for name in ALL_ISOTOPES:
            isotope = isotope_by_name(name)
            config = SourceConfig(isotope, 1.15e8, 12.0, bare_shielding())
            template = build_template(config, DETECTOR, 1.0)
            top = max(energy for energy, _ in isotope.lines)
            cutoff = top + 5.0 * DETECTOR.fwhm_kev(top)
            dead = cal.bin_centers() > cutoff
            assert np.all(template.counts[dead] == 0.0), name

    def test_depleted_uranium_adds_emission_lines(self):
        cal = DETECTOR.calibration
        du = default_shielding("DepletedUranium")
        template = build_template(cs_config(shielding=du), DETECTOR, 86400.0)
        bare = build_template(cs_config(), DETECTOR, 86400.0)
        for energy, _ in DU_EMISSION_LINES:
            ch = channel_of(cal, energy)
            assert template.counts[ch] > bare.counts[ch]
        # 1001 keV is beyond the cesium photopeak tail, so only DU populates it
        assert bare.counts[channel_of(cal, 1001.0)] == 0.0

    @given(distance=st.floats(0.1, 1000.0), factor=st.floats(0.1, 10.0))
    @example(distance=10.0, factor=2.0)
    def test_geometric_fraction_inverse_square(self, distance, factor):
        area = 51.6128
        near = geometric_fraction(distance, area)
        assert near == pytest.approx(area / (4.0 * math.pi * (100.0 * distance) ** 2), rel=1e-12)
        far = geometric_fraction(distance * factor, area)
        assert far == pytest.approx(near / factor**2, rel=1e-12)
        if math.frexp(factor)[0] == 0.5:  # a power of two: no step rounds, so the law is exact
            assert far == near / factor**2


def reference_template(config, detector, dwell_s, background_cps=DEFAULT_BACKGROUND_CPS):
    """One cell synthesised on its own, each line's response built anew: the
    per-cell loop that :func:`template_matrix` must reproduce bit for bit."""
    geom = geometric_fraction(config.distance_m, detector.face_area_cm2)
    counts = np.zeros(detector.calibration.n_channels)
    for energy, intensity in config.isotope.lines:
        expected = (
            config.activity_bq
            * dwell_s
            * intensity
            * attenuation_factor(config.shielding, energy)
            * geom
            * detector.intrinsic_efficiency
        )
        counts = counts + line_response(detector, energy, expected)
    if config.shielding.material is ShieldMaterial.DEPLETED_URANIUM:
        du_activity = DU_EMISSION_BQ_PER_CM * config.shielding.thickness_cm
        for energy, intensity in DU_EMISSION_LINES:
            expected = du_activity * dwell_s * intensity * geom * detector.intrinsic_efficiency
            counts = counts + line_response(detector, energy, expected)
    if config.include_background:
        counts = counts + background_template(detector, dwell_s, background_cps)
    return counts


def du_grid():
    thick = default_shielding("DepletedUranium", 2.0)
    return standard_grid(materials=("DepletedUranium", "Bare")) + [
        SourceConfig(isotope_by_name(name), 3.0e7, 12.5, thick, include_background=True)
        for name in ("Cobalt", "Iridium")
    ]


class TestTemplateMatrix:
    @pytest.mark.parametrize(
        "grid, detector",
        [
            (standard_grid(), DETECTOR),
            (standard_grid(include_background=True), DETECTOR),
            (du_grid(), DETECTOR),
            (standard_grid(include_background=True), default_detector(512)),
        ],
        ids=["default", "background", "depleted_uranium", "512_channels"],
    )
    def test_bit_identical_to_the_per_cell_loop(self, grid, detector):
        matrix = template_matrix(grid, detector, TEMPLATE_DWELL_S, 250.0)
        reference = np.stack(
            [reference_template(config, detector, TEMPLATE_DWELL_S, 250.0) for config in grid]
        )
        assert np.array_equal(matrix, reference)
        one = build_template(grid[-1], detector, TEMPLATE_DWELL_S, 250.0)
        assert np.array_equal(one.counts, reference[-1])

    def test_template_dataset_rebins_the_per_cell_loop_exactly(self):
        grid = standard_grid(include_background=True)
        ds = template_dataset(grid, TaskKind.ISOTOPE_ID, DETECTOR, dwell_s=2.0, rebin_factor=4)
        blocks = [reference_template(c, DETECTOR, TEMPLATE_DWELL_S).reshape(-1, 4) for c in grid]
        reference = np.array([[math.fsum(b) for b in cell] for cell in blocks])
        reference = reference * (2.0 / TEMPLATE_DWELL_S)
        assert np.array_equal(ds.counts, reference)
        assert ds.calibration == EnergyCalibration(0.0, 3000.0, 256)

    @pytest.mark.parametrize(
        "e_max, material, message",
        [
            (1250.0, "Bare", "Cobalt: line at 1332.5 keV is outside calibration range "
                             "[0.0, 1250.0] keV"),
            (900.0, "DepletedUranium", "DepletedUranium: line at 1001.0 keV is outside "
                                       "calibration range [0.0, 900.0] keV"),
        ],
    )
    def test_out_of_range_line_names_its_source_and_the_range(self, e_max, material, message):
        detector = DetectorModel(EnergyCalibration(0.0, e_max, 256))
        grid = standard_grid(isotopes=("Cesium", "Cobalt"), materials=(material,))
        with pytest.raises(ValueError) as info:
            template_matrix(grid, detector, 1.0)
        assert str(info.value) == message

    @pytest.mark.parametrize("isotope, e_max, table_max, message", [
        ("Cesium", 3000.0, 500.0,
         "Cesium: Steel: energy 661.7 keV outside attenuation table [10.0, 500.0]"),
        # Two defects: the 1173.2 keV line's shape is refused before the
        # 1332.5 keV line's attenuation lookup.
        ("Cobalt", 1000.0, 1250.0,
         "Cobalt: line at 1173.2 keV is outside calibration range [0.0, 1000.0] keV"),
    ], ids=["table", "calibration-first"])
    def test_a_line_outside_the_attenuation_table_names_its_source_and_shield(
            self, isotope, e_max, table_max, message):
        steel = Shielding(ShieldMaterial.STEEL, 1.0, [10.0, table_max], [2.0, 1.0])
        grid = [SourceConfig(isotope_by_name(isotope), 1.0e8, 10.0, steel)]
        with pytest.raises(ValueError) as info:
            template_matrix(grid, DetectorModel(EnergyCalibration(0.0, e_max, 256)), 1.0)
        assert str(info.value) == message

    def test_a_face_larger_than_the_sphere_names_the_isotope_and_distance(self):
        grid = standard_grid(isotopes=("Cesium",), distances_m=(0.001,), materials=("Bare",))
        with pytest.raises(ValueError) as info:
            template_matrix(grid, default_detector(), 1.0, 0.0)
        assert str(info.value) == ("Cesium: at 0.001 m the detector face (51.6128 cm^2) "
                                   "exceeds the whole sphere")

    def test_a_face_equal_to_the_sphere_is_accepted(self):
        # The run config's grid.distances_m accepts 4 pi (100 d)^2 >= face_area_cm2.
        distance = 0.01
        detector = replace(DETECTOR, face_area_cm2=sphere_area_cm2(distance))
        grid = standard_grid(isotopes=("Cesium",), distances_m=(distance,), materials=("Bare",))
        assert np.isfinite(template_matrix(grid, detector, 1.0, 0.0)).all()


class TestDataDirOverride:
    def test_env_var_redirects_table_loading(self, tmp_path, monkeypatch):
        (tmp_path / "nuclide_lines.csv").write_text(
            "isotope,energy_keV,intensity\nCesium,661.7,0.851\nMystery,500.0,1.0\n"
        )
        monkeypatch.setenv("GAMMASORT_DATA_DIR", str(tmp_path))
        mystery = isotope_by_name("Mystery")
        assert mystery.lines == ((500.0, 1.0),)

    def test_columns_are_found_by_name(self, tmp_path, monkeypatch):
        # An override table may order its columns as it likes and add its own.
        (tmp_path / "nuclide_lines.csv").write_text(
            "energy_keV,source,intensity,isotope\n500.0,lab,1.0,Mystery\n"
        )
        (tmp_path / "attenuation_steel.csv").write_text(
            "note,mu_per_cm,energy_keV\nhigh,2.0,10\nlow,1.0,20\n"
        )
        monkeypatch.setenv("GAMMASORT_DATA_DIR", str(tmp_path))
        assert isotope_by_name("Mystery").lines == ((500.0, 1.0),)
        energies, mu = nucleardata.load_attenuation_table("steel")
        assert (energies.tolist(), mu.tolist()) == ([10.0, 20.0], [2.0, 1.0])

    def test_missing_override_file_reports_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAMMASORT_DATA_DIR", str(tmp_path))
        with pytest.raises(FileNotFoundError) as err:
            isotope_by_name("Cesium")
        assert str(tmp_path) in str(err.value)

    @pytest.mark.parametrize("name, text, cause", [
        ("attenuation_steel.csv", "# c\nenergy_keV,mu\n10,1.0\n",
         "2: header lacks the columns ['mu_per_cm']"),
        ("attenuation_steel.csv", "energy_keV,mu_per_cm\n10,1.0\n\n20,abc\n",
         "4: cell 2 is not a number: 'abc'"),
        ("nuclide_lines.csv", "# c\nisotope,energy_keV,intensity\nCesium,661.7\n",
         "3: 2 cells, expected 3"),
        ("nuclide_lines.csv", "isotope,energy_keV,intensity\nCesium,abc,0.851\n",
         "2: cell 2 is not a number: 'abc'"),
        ("nuclide_lines.csv", "# c\nisotope,energy,intensity\n",
         "2: header lacks the columns ['energy_keV']"),
        ("nuclide_lines.csv", "isotope,energy_keV,intensity\nCes\xffium,661.7,0.851\n",
         "2: a byte does not decode"),
        # Values that Shielding or Isotope refuses name the file, not a line.
        ("attenuation_steel.csv", "energy_keV,mu_per_cm\n10,1343.3\n",
         " attenuation table needs matching 1-D energy/mu arrays"),
        ("attenuation_steel.csv", "energy_keV,mu_per_cm\n10,1343.3\n150,-0.2161\n",
         " attenuation coefficients must be positive"),
        ("attenuation_steel.csv", "energy_keV,mu_per_cm\n10,1343.3\n10,1.0\n",
         " attenuation energies must be strictly increasing"),
        ("nuclide_lines.csv", "isotope,energy_keV,intensity\nCesium,661.7,1.851\n",
         " Cesium: intensity 1.851 outside (0, 1]"),
    ], ids=["attenuation-columns", "attenuation-cell", "nuclide-width", "nuclide-cell",
            "nuclide-columns", "nuclide-byte", "attenuation-rows", "attenuation-mu",
            "attenuation-order", "nuclide-intensity"])
    def test_malformed_table_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                               name, text, cause):
        for bundled in nucleardata._BUNDLED_DIR.glob("*.csv"):
            shutil.copy(bundled, tmp_path)
        (tmp_path / name).write_bytes(text.encode("latin-1"))
        monkeypatch.setenv("GAMMASORT_DATA_DIR", str(tmp_path))
        assert cli.main(["synth", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"gammasort: error: grid: {tmp_path / name}:{cause}\n"
        assert not (tmp_path / "out").exists()


class TestErf:
    # Cephes erf's value at x and -x, as float.hex; scipy.special.erf gives the same.
    TABLE = {
        0.0: ("0x0.0p+0", "-0x0.0p+0"),
        0.5: ("0x1.0a7ef5c18edd2p-1", "-0x1.0a7ef5c18edd2p-1"),
        1.0: ("0x1.af767a741088ap-1", "-0x1.af767a741088ap-1"),
        1.5: ("0x1.eea5557137ae0p-1", "-0x1.eea5557137ae0p-1"),
        5.0: ("0x1.fffffffffc9e8p-1", "-0x1.fffffffffc9e8p-1"),
        8.0: ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
        26.5: ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
        27.0: ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
        math.inf: ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
    }
    # Where cephes switches branch or stops forming exp(-x^2) (at -x^2 < -log(2**1024)),
    # with their neighbours.
    SWITCHES = [
        math.nextafter(v, toward)
        for edge in (1.0, 8.0, math.sqrt(1024 * math.log(2.0)))
        for v in (edge, -edge)
        for toward in (-math.inf, v, math.inf)
    ]
    EDGES = [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 26.5, 26.6, 26.7, 27.3, -27.3, math.inf, -math.inf,
             5e-324, -5e-324, 1e308, -1e308, math.nan, *SWITCHES]

    def test_fixed_values(self):
        x = np.array(list(self.TABLE))
        got = list(zip(_erf(x).tolist(), _erf(-x).tolist()))
        assert [(a.hex(), b.hex()) for a, b in got] == list(self.TABLE.values())

    @pytest.fixture(scope="class")
    def scipy_erf(self):
        return pytest.importorskip("scipy.special").erf

    # Any float, and more often one where erf is not yet +-1.
    VALUES = st.lists(st.one_of(st.floats(), st.floats(-27.0, 27.0)), min_size=1, max_size=64)

    @given(VALUES)
    @example(EDGES)
    def test_same_bits_as_scipy(self, scipy_erf, values):
        x = np.array(values, dtype=np.float64)
        assert _erf(x).tobytes() == scipy_erf(x).tobytes()

    def test_same_bits_as_scipy_on_a_dense_sweep(self, scipy_erf):
        # Rounding differences are rare: np.exp in place of math.exp changes
        # about 1 value in 2,400.
        x = np.linspace(-27.0, 27.0, 540_001)
        assert _erf(x).tobytes() == scipy_erf(x).tobytes()

    @given(VALUES)
    @example(EDGES)
    @pytest.mark.filterwarnings("error")  # no input may raise a floating-point warning
    def test_odd_bounded_and_nan_only_for_nan(self, values):
        x = np.array(values, dtype=np.float64)
        y = _erf(x)
        assert np.array_equal(np.isnan(y), np.isnan(x))
        real = ~np.isnan(x)
        assert np.all(np.abs(y[real]) <= 1.0)
        assert _erf(-x[real]).tobytes() == (-y[real]).tobytes()


def test_import_leaves_scipy_unloaded():
    # No process needs scipy: erf is ported to numpy (_erf), so scipy is a
    # test-only dependency and importing the CLI must not load it.
    code = "import sys, gammasort.cli; print(any(m.startswith('scipy') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestValidation:
    def test_bare_with_thickness_rejected(self):
        from gammasort.forward_model import Shielding

        with pytest.raises(ValueError):
            Shielding(ShieldMaterial.BARE, 1.0)

    def test_unknown_isotope_rejected(self):
        with pytest.raises(ValueError):
            isotope_by_name("Plutonium")

    def test_nonpositive_activity_rejected(self):
        with pytest.raises(ValueError):
            SourceConfig(isotope_by_name("Cesium"), 0.0, 10.0, bare_shielding())

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            SourceConfig(isotope_by_name("Cesium"), 1e8, 0.0, bare_shielding())

    def test_intensity_above_one_rejected(self):
        from gammasort.forward_model import Isotope

        with pytest.raises(ValueError):
            Isotope("Bad", ((100.0, 1.5),))

    def test_isotope_without_lines_rejected(self):
        from gammasort.forward_model import Isotope

        with pytest.raises(ValueError):
            Isotope("Empty", ())
