import csv
import io
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from sdidml.errors import (
    DataError,
    DuplicateIndexError,
    EmptyControlPoolError,
    FieldTypeError,
    MissingFieldError,
    NonAbsorbingTreatmentError,
    NonFiniteValueError,
)
from panels import panel_of
from sdidml import panel as panel_module
from sdidml.panel import (
    REQUIRED_COLUMNS,
    PanelDataset,
    _panel_from_lines,
    _read_csv_cells,
    read_panel_csv,
    subset_units,
    write_panel_csv,
)
from sdidml.simulate import generate, scenario


def two_unit_panel():
    return panel_of([
        ("A", 1, 1.0, 0, 0.1), ("A", 2, 2.0, 1, 0.2), ("A", 3, 3.0, 1, 0.3),
        ("B", 1, 0.5, 0, -0.1), ("B", 2, 0.6, 0, -0.2), ("B", 3, 0.7, 0, -0.3),
    ])


def read_text(tmp_path, text):
    """``read_panel_csv`` of a file holding ``text``."""
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")
    return read_panel_csv(path)


HEADER = "unit,time,outcome,treatment,x0\n"


class TestBuildPanel:
    def test_cohort_derivation(self):
        panel = two_unit_panel()
        assert_array_equal(panel.cohort_times, [2.0, np.inf])
        assert panel.units == ("A", "B")
        assert panel.periods == (1, 2, 3)

    def test_non_absorbing_treatment_rejected(self, tmp_path):
        with pytest.raises(NonAbsorbingTreatmentError):
            read_text(tmp_path, HEADER + "A,1,0.0,0,0.0\nA,2,0.0,1,0.0\n"
                                         "A,3,0.0,0,0.0\nB,1,0.0,0,0.0\n")

    def test_everyone_treated_at_once_has_no_controls(self, tmp_path):
        with pytest.raises(EmptyControlPoolError):
            read_text(tmp_path, HEADER + "A,1,0.0,1,0.0\nB,1,0.0,1,0.0\n")

    def test_two_cohorts_without_never_treated_is_valid(self):
        panel = panel_of([
            ("A", 1, 0.0, 0, 0.0), ("A", 2, 0.0, 1, 0.0), ("A", 3, 0.0, 1, 0.0),
            ("B", 1, 0.0, 0, 0.0), ("B", 2, 0.0, 0, 0.0), ("B", 3, 0.0, 1, 0.0)])
        assert_array_equal(panel.cohort_times, [2.0, 3.0])

    def test_duplicate_index(self, tmp_path):
        with pytest.raises(DuplicateIndexError):
            read_text(tmp_path, HEADER + "A,1,0.0,0,0.0\nA,1,1.0,0,0.0\nB,1,0.0,0,0.0\n")

    def test_missing_field(self, tmp_path):
        with pytest.raises(MissingFieldError, match="outcome"):
            read_text(tmp_path, HEADER + "A,1,0.0,0,0.0\nB,1,,0,0.0\n")

    def test_non_finite_outcome(self, tmp_path):
        with pytest.raises(NonFiniteValueError):
            read_text(tmp_path, HEADER + "A,1,nan,0,0.0\nB,1,0.0,0,0.0\n")

    def test_non_finite_covariate(self, tmp_path):
        with pytest.raises(NonFiniteValueError):
            read_text(tmp_path, HEADER + "A,1,0.0,0,inf\nB,1,0.0,0,0.0\n")

    def test_non_binary_treatment(self, tmp_path):
        with pytest.raises(FieldTypeError):
            read_text(tmp_path, HEADER + "A,1,0.0,0.5,0.0\nB,1,0.0,0,0.0\n")

    @pytest.mark.parametrize("column, value, error", [
        ("outcomes", np.nan, NonFiniteValueError),
        ("covariates", np.inf, NonFiniteValueError),
        ("treatments", 2, FieldTypeError),
        ("treatments", 0.5, FieldTypeError),
        ("times", 1.5, FieldTypeError),
        ("times", 10**19, FieldTypeError),
        ("unit_ids", "", MissingFieldError),
    ], ids=["nan_outcome", "inf_covariate", "treatment_2", "treatment_half", "time_1.5",
            "time_1e19", "empty_unit"])
    def test_the_constructor_names_the_row_of_a_bad_value(self, column, value, error):
        # 3 units x 2 periods built directly; row 3 (unit B at t=2) gets the bad value
        columns = {"unit_ids": ["A", "A", "B", "B", "C", "C"], "times": [1, 2, 1, 2, 1, 2],
                   "outcomes": [0.0] * 6, "treatments": [0, 1, 0, 0, 0, 0],
                   "covariates": [[0.0]] * 6}
        columns[column] = [*columns[column][:3], [value] if column == "covariates" else value,
                           *columns[column][4:]]
        with pytest.raises(error, match=r"^row 3: "):
            PanelDataset(*columns.values(), ["x0"])

    def test_the_streaming_pass_raises_a_bad_value_itself(self, tmp_path, monkeypatch):
        # the csv-module reader is not called to name the cell
        def fallback(*args):
            raise AssertionError("the file was read a second time")

        monkeypatch.setattr(panel_module, "_read_csv_cells", fallback)
        rows = "".join(f"u{i},1,{i}.5,0\n" for i in range(99))
        with pytest.raises(NonFiniteValueError, match=r"^row 99: field 'outcome'"):
            read_text(tmp_path, "unit,time,outcome,treatment\n" + rows + "u99,1,nan,0\n")

    @pytest.mark.parametrize("header, row_a", [
        ("unit,time,outcome,treatment", "A,1,\x1c1.5,0"),
        ("unit,time,outcome,treatment", "A,1,1.5,\x1c1"),
        ("unit,time,outcome,treatment,x0", "A,1,1.5,0,\x1c2"),
    ], ids=["outcome", "treatment", "covariate"])
    def test_a_cell_padded_with_a_separator_reads_on_both_passes(self, tmp_path, header,
                                                                 row_a):
        # float(text.strip()) reads the cells np.loadtxt reads; a lone CR
        # sends the second file to the csv-module reader
        pad = ",0" * (header.count(",") - 3)
        plain = f"{header}\n{row_a}\nA,2,1,1{pad}\nB,1,1,0{pad}\nB,2,1,0{pad}\n"
        lone_cr = plain + f"C,1,1,0{pad}\rC,2,1,0{pad}\n"
        assert _panel_from_lines(io.StringIO(lone_cr, newline="\n")) is None
        want = read_text(tmp_path, plain.replace("\x1c", "") + f"C,1,1,0{pad}\nC,2,1,0{pad}\n")
        assert read_text(tmp_path, lone_cr) == want
        assert read_text(tmp_path, plain) == subset_units(want, [0, 1])

    def test_unbalanced_panel_accepted(self):
        panel = panel_of([
            ("A", 1, 0.0, 0, 0.0), ("A", 3, 1.0, 1, 0.0),
            ("B", 1, 0.0, 0, 0.0), ("B", 2, 0.0, 0, 0.0), ("B", 3, 0.0, 0, 0.0)])
        assert panel.n_obs == 5
        assert_array_equal(panel.cohort_times, [3.0, np.inf])

    def test_row_order_invariance(self):
        rows = [("A", 1, 1.0, 0, 0.1), ("A", 2, 2.0, 1, 0.2), ("A", 3, 3.0, 1, 0.3),
                ("B", 1, 0.5, 0, -0.1), ("B", 2, 0.6, 0, -0.2), ("B", 3, 0.7, 0, -0.3)]
        reference = panel_of(rows)
        rng = np.random.default_rng(5)
        for _ in range(5):
            assert panel_of([rows[i] for i in rng.permutation(len(rows))]) == reference

    def test_equal_panels_are_not_hashable(self):
        # equality compares contents, so no hash can agree with it cheaply
        assert two_unit_panel() == two_unit_panel()
        with pytest.raises(TypeError):
            hash(two_unit_panel())


class TestSerialization:
    def test_csv_round_trip_lossless(self, tmp_path):
        # awkward doubles must survive the text round trip bit-for-bit
        vals = [0.1, 1 / 3, 1e-17, -2.5000000000000004, 123456789.123456789]
        panel = panel_of([*[("A", t + 1, vals[t], 0, vals[-1 - t]) for t in range(5)],
                          *[("B", t + 1, -vals[t], 1 if t >= 2 else 0, vals[t])
                            for t in range(5)]])
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
        with open(path, newline="\n", encoding="utf-8") as fh:  # one loadtxt pass, no fallback
            assert _panel_from_lines(fh) == panel

    @pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5"])
    def test_csv_bytes_are_the_csv_writers_over_every_row(self, tmp_path, name):
        # the unit-by-unit writer against the csv module over one row list
        panel = generate(scenario(name)).panel
        rows = [[panel.units[u], panel.periods[t], y, int(d), *x] for u, t, y, d, x in zip(
            panel.unit_codes.tolist(), panel.time_codes.tolist(), panel.outcomes.tolist(),
            panel.treatments.tolist(), panel.covariates.tolist())]
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow([*REQUIRED_COLUMNS, *panel.covariate_names])
        writer.writerows(rows)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    def test_reading_peaks_near_the_size_of_the_panel(self, tmp_path):
        # the text is streamed: neither it nor its lines are held whole
        path = tmp_path / "panel.csv"
        write_panel_csv(generate(scenario("S3")).panel, path)
        tracemalloc.start()
        try:
            panel = read_panel_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * panel.covariates.nbytes

    def test_quoted_fields_stream_too(self, tmp_path):
        # every unit id and name quoted, as csv.QUOTE_NONNUMERIC writes them:
        # the streaming pass reads the file, not the csv-module reader
        panel = generate(scenario("S3")).panel
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        write_panel_csv(panel, plain)
        with open(plain, newline="", encoding="utf-8") as src, \
                open(quoted, "w", newline="", encoding="utf-8") as dst:
            rows = csv.reader(src)
            writer = csv.writer(dst, quoting=csv.QUOTE_NONNUMERIC)
            writer.writerow(next(rows))
            writer.writerows([row[0], *map(float, row[1:])] for row in rows)
        assert '"u' in quoted.read_text(encoding="utf-8")
        with open(quoted, newline="\n", encoding="utf-8") as fh:
            assert _panel_from_lines(fh) is not None
        tracemalloc.start()
        try:
            got = read_panel_csv(quoted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == read_panel_csv(plain)
        assert peak <= 3 * got.covariates.nbytes

    def test_lines_longer_than_the_csv_field_limit_stream(self, tmp_path):
        # The csv module limits a field, not a line: with 7,000 covariates a
        # line is longer than csv.field_size_limit(), and no field is. The
        # id "u,2" is quoted, so both kinds of line are measured.
        rng = np.random.default_rng(3)
        units = ["u1", "u,2", "u3", "u4"]
        panel = PanelDataset(np.repeat(units, 2), np.tile([1, 2], 4), rng.standard_normal(8),
                             [0, 1, 0, 0, 0, 0, 0, 0], rng.standard_normal((8, 7000)),
                             [f"x{j}" for j in range(7000)])
        path = tmp_path / "wide.csv"
        write_panel_csv(panel, path)
        with open(path, newline="\n", encoding="utf-8") as fh:
            lines = fh.readlines()
            assert min(map(len, lines[1:])) > csv.field_size_limit()
            assert any(line.startswith('"u,2"') for line in lines)
            got = _panel_from_lines(lines)
        with open(path, newline="", encoding="utf-8") as fh:
            want = _read_csv_cells(path, fh)
        assert got is not None
        assert got == want == panel

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,time,outcome,x0\nA,1,0.0,0.0\n")
        with pytest.raises(MissingFieldError, match="treatment"):
            read_panel_csv(path)

    @pytest.mark.parametrize("text, name", [
        ("unit,time,outcome,treatment,x,x\nA,1,0,0,1,2\nB,1,0,0,3,4\n", "x"),
        ("unit,time,outcome,outcome,treatment\nA,1,0,5,0\nB,1,0,6,0\n", "outcome"),
    ], ids=["x_twice", "outcome_twice"])
    def test_repeated_column_named(self, tmp_path, text, name):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError) as err:
            read_panel_csv(path)
        assert str(err.value) == f"{path}: column '{name}' appears more than once"
