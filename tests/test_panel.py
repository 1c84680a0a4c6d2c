import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sdidml.errors import (
    DuplicateIndexError,
    EmptyControlPoolError,
    FieldTypeError,
    MissingFieldError,
    NonAbsorbingTreatmentError,
    NonFiniteValueError,
    UnknownPeriodError,
    UnknownUnitError,
)
from sdidml.panel import (
    NEVER_TREATED,
    Cohort,
    _panel_from_text,
    build_panel,
    event_time,
    feature_matrix,
    read_panel_csv,
    to_records,
    write_panel_csv,
)
from sdidml.simulate import generate, scenario


def rows(*tuples, p=1):
    """(unit, time, outcome, treatment, x0, x1, ...) tuples -> record dicts."""
    out = []
    for tup in tuples:
        unit, time, y, d, *covs = tup
        rec = {"unit": unit, "time": time, "outcome": y, "treatment": d}
        rec.update({f"x{j}": covs[j] if j < len(covs) else 0.0 for j in range(p)})
        out.append(rec)
    return out


def two_unit_panel():
    return build_panel(rows(
        ("A", 1, 1.0, 0, 0.1), ("A", 2, 2.0, 1, 0.2), ("A", 3, 3.0, 1, 0.3),
        ("B", 1, 0.5, 0, -0.1), ("B", 2, 0.6, 0, -0.2), ("B", 3, 0.7, 0, -0.3),
    ))


class TestBuildPanel:
    def test_cohort_derivation(self):
        panel = two_unit_panel()
        assert panel.cohort["A"] == Cohort(2)
        assert panel.cohort["B"] == NEVER_TREATED
        assert panel.units == ("A", "B")
        assert panel.periods == (1, 2, 3)

    def test_non_absorbing_treatment_rejected(self):
        with pytest.raises(NonAbsorbingTreatmentError):
            build_panel(rows(("A", 1, 0.0, 0, 0.0), ("A", 2, 0.0, 1, 0.0),
                             ("A", 3, 0.0, 0, 0.0), ("B", 1, 0.0, 0, 0.0)))

    def test_everyone_treated_at_once_has_no_controls(self):
        with pytest.raises(EmptyControlPoolError):
            build_panel(rows(("A", 1, 0.0, 1, 0.0), ("B", 1, 0.0, 1, 0.0)))

    def test_two_cohorts_without_never_treated_is_valid(self):
        panel = build_panel(rows(
            ("A", 1, 0.0, 0, 0.0), ("A", 2, 0.0, 1, 0.0), ("A", 3, 0.0, 1, 0.0),
            ("B", 1, 0.0, 0, 0.0), ("B", 2, 0.0, 0, 0.0), ("B", 3, 0.0, 1, 0.0)))
        assert panel.cohort["A"] == Cohort(2)
        assert panel.cohort["B"] == Cohort(3)

    def test_duplicate_index(self):
        with pytest.raises(DuplicateIndexError):
            build_panel(rows(("A", 1, 0.0, 0, 0.0), ("A", 1, 1.0, 0, 0.0),
                             ("B", 1, 0.0, 0, 0.0)))

    def test_missing_field(self):
        recs = rows(("A", 1, 0.0, 0, 0.0), ("B", 1, 0.0, 0, 0.0))
        del recs[1]["outcome"]
        with pytest.raises(MissingFieldError, match="outcome"):
            build_panel(recs)

    def test_non_finite_outcome(self):
        with pytest.raises(NonFiniteValueError):
            build_panel(rows(("A", 1, float("nan"), 0, 0.0), ("B", 1, 0.0, 0, 0.0)))

    def test_non_finite_covariate(self):
        with pytest.raises(NonFiniteValueError):
            build_panel(rows(("A", 1, 0.0, 0, float("inf")), ("B", 1, 0.0, 0, 0.0)))

    def test_non_binary_treatment(self):
        with pytest.raises(FieldTypeError):
            build_panel(rows(("A", 1, 0.0, 0.5, 0.0), ("B", 1, 0.0, 0, 0.0)))

    def test_unbalanced_panel_accepted(self):
        panel = build_panel(rows(
            ("A", 1, 0.0, 0, 0.0), ("A", 3, 1.0, 1, 0.0),
            ("B", 1, 0.0, 0, 0.0), ("B", 2, 0.0, 0, 0.0), ("B", 3, 0.0, 0, 0.0)))
        assert panel.n_obs == 5
        assert panel.cohort["A"] == Cohort(3)

    def test_row_order_invariance(self):
        recs = rows(
            ("A", 1, 1.0, 0, 0.1), ("A", 2, 2.0, 1, 0.2), ("A", 3, 3.0, 1, 0.3),
            ("B", 1, 0.5, 0, -0.1), ("B", 2, 0.6, 0, -0.2), ("B", 3, 0.7, 0, -0.3))
        reference = build_panel(recs)
        rng = np.random.default_rng(5)
        for _ in range(5):
            shuffled = [recs[i] for i in rng.permutation(len(recs))]
            assert build_panel(shuffled) == reference


class TestEventTime:
    def test_post_treatment(self):
        panel = build_panel(rows(
            ("A", 1, 0.0, 0, 0.0), ("A", 2, 0.0, 1, 0.0), ("A", 4, 0.0, 1, 0.0),
            ("B", 1, 0.0, 0, 0.0), ("B", 4, 0.0, 0, 0.0)))
        assert event_time(panel, "A", 4) == 2

    def test_pre_treatment_and_never(self):
        panel = two_unit_panel()
        assert event_time(panel, "A", 1) == -1
        assert event_time(panel, "B", 3) is None

    def test_unknown_unit_and_period(self):
        panel = two_unit_panel()
        with pytest.raises(UnknownUnitError):
            event_time(panel, "Z", 1)
        with pytest.raises(UnknownPeriodError):
            event_time(panel, "A", 99)

    def test_strictly_increasing_in_t(self):
        panel = two_unit_panel()
        es = [event_time(panel, "A", t) for t in panel.periods]
        assert es == [-1, 0, 1]


class TestFeatureMatrix:
    def test_standardized_column_hand_values(self):
        # population SD of (1, 2, 3) is sqrt(2/3)
        panel = build_panel(rows(("A", 1, 0.0, 0, 1.0), ("A", 2, 0.0, 0, 2.0),
                                 ("B", 1, 0.0, 0, 3.0)))
        X, means, scales = feature_matrix(panel, standardize=True)
        assert_allclose(X[:, 0], [-1.224744871391589, 0.0, 1.224744871391589],
                        atol=1e-12)
        assert_allclose(means, [2.0])
        assert_allclose(scales, [np.sqrt(2.0 / 3.0)])

    def test_constant_column_centered_with_unit_scale(self):
        panel = build_panel(rows(("A", 1, 0.0, 0, 7.0), ("B", 1, 0.0, 0, 7.0)))
        X, means, scales = feature_matrix(panel, standardize=True)
        assert_array_equal(X[:, 0], [0.0, 0.0])
        assert scales[0] == 1.0

    def test_weighted_standardization_hand_values(self):
        # weights (1, 3, 0) on (1, 2, 3): mean 7/4, population SD sqrt(3)/4
        panel = build_panel(rows(("A", 1, 0.0, 0, 1.0), ("A", 2, 0.0, 0, 2.0),
                                 ("B", 1, 0.0, 0, 3.0)))
        X, means, scales = feature_matrix(panel, sample_weight=np.array([1.0, 3.0, 0.0]))
        assert_allclose(means, [1.75], rtol=1e-15)
        assert_allclose(scales, [np.sqrt(3.0) / 4.0], rtol=1e-15)
        assert_allclose(X[:, 0], (np.array([1.0, 2.0, 3.0]) - 1.75) / scales[0], rtol=1e-15)

    def test_no_standardize_is_identity(self):
        panel = two_unit_panel()
        X, _, _ = feature_matrix(panel, standardize=False)
        assert_array_equal(X, panel.covariates)


class TestSerialization:
    def test_record_round_trip(self):
        panel = two_unit_panel()
        assert build_panel(to_records(panel)) == panel

    def test_csv_round_trip_lossless(self, tmp_path):
        # awkward doubles must survive the text round trip bit-for-bit
        vals = [0.1, 1 / 3, 1e-17, -2.5000000000000004, 123456789.123456789]
        recs = rows(*[("A", t + 1, vals[t], 0, vals[-1 - t]) for t in range(5)],
                    *[("B", t + 1, -vals[t], 1 if t >= 2 else 0, vals[t]) for t in range(5)])
        panel = build_panel(recs)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        assert read_panel_csv(path) == panel

    @pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5"])
    def test_csv_round_trip_every_scenario(self, tmp_path, name):
        panel = generate(scenario(name)).panel
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        got = read_panel_csv(path)
        assert got == panel
        assert got.treatments.tobytes() == panel.treatments.tobytes()
        with open(path, newline="", encoding="utf-8") as fh:  # one loadtxt pass, no fallback
            assert _panel_from_text(fh.read()) == panel

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,time,outcome,x0\nA,1,0.0,0.0\n")
        with pytest.raises(MissingFieldError, match="treatment"):
            read_panel_csv(path)
