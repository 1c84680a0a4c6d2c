"""The full-mode bootstrap refits only the outcome model, with weights.

The contrast cells read y_tilde = Y - g_hat alone, so a replicate cross-fits
g and never fits the treatment model m. It fits the distinct drawn units
once each, weighted by how many times each was drawn; its residuals go back
onto the original units and its cells come from one weighted
``group_time_cells`` call. These tests pin that this reproduces, for every
outcome learner kind, the replicate that copied each drawn unit under a
fresh id and ran the whole of ``estimate_effects`` (both nuisances) on that
panel, kept here as the reference, and that no refit fits m.
"""

import importlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sdidml.aggregate import bootstrap, placebo_test
from sdidml.crossfit import FoldAssignment, assign_folds
from sdidml.errors import DataError, EstimationError, LearnerError
from sdidml.learners import LearnerSpec
from sdidml.panel import PanelDataset, build_panel, unit_rows
from sdidml.pipeline import PipelineConfig, estimate_effects
from sdidml.simulate import generate, scenario

# The package attribute ``sdidml.aggregate`` is the aggregate() function.
aggregate = importlib.import_module("sdidml.aggregate")
learners = importlib.import_module("sdidml.learners")

# A unit drawn k times enters the fits and the cell sums once with weight k,
# not as k copies, so sums run in another order: tau, SEs (relative) and CI
# bounds may move in the last digits of a double.
TOL = 1e-12


def small_null_panel(n_units=60, seed=11):
    return generate(replace(scenario("S4"), n_units=n_units, seed=seed)).panel


def two_control_panel():
    """Eight units, two never treated: about 10% of resamples draw no control."""
    rng = np.random.default_rng(17)
    recs = []
    for i in range(8):
        g = None if i < 2 else (3 if i < 5 else 4)
        for t in (1, 2, 3, 4, 5):
            recs.append({"unit": f"u{i}", "time": t,
                         "outcome": float(rng.standard_normal() + (g is not None and t >= g)),
                         "treatment": int(g is not None and t >= g),
                         "x0": float(rng.standard_normal())})
    return build_panel(recs)


def fresh_id_panel(panel, idx):
    """The drawn units' rows, copy k of unit i renamed ``b<k>.<unit i>``."""
    rows = unit_rows(panel, idx)
    fresh = np.array([f"b{k:06d}.{panel.units[i]}" for k, i in enumerate(idx)])
    lengths = panel.unit_starts[idx + 1] - panel.unit_starts[idx]
    return PanelDataset(np.repeat(fresh, lengths),
                        np.asarray(panel.periods)[panel.time_codes[rows]],
                        panel.outcomes[rows], panel.treatments[rows],
                        panel.covariates[rows], panel.covariate_names)


def both_nuisance_replicates(config, panel, B, seed):
    """Cell tables ``{(g, t): (tau, n_treated, n_control)}`` of the replicate
    that ran all of ``estimate_effects``.

    Replicate r resamples with seed ``seed + r``, gives the copies fresh
    ids, puts every copy in its unit's fold, and cross-fits both nuisances;
    None marks a failed replicate.
    """
    tables = []
    for r in range(B):
        idx = np.random.default_rng(seed + r).integers(0, panel.n_units, size=panel.n_units)
        fresh = [f"b{k:06d}.{panel.units[i]}" for k, i in enumerate(idx)]
        fold_of = assign_folds(panel, config.n_folds, seed + r).fold_of_unit
        folds = FoldAssignment(config.n_folds,
                               {f: fold_of[panel.units[i]] for f, i in zip(fresh, idx)})
        try:
            effects = estimate_effects(fresh_id_panel(panel, idx), config, folds).effects
        except (DataError, EstimationError, LearnerError):
            tables.append(None)
            continue
        tables.append({key: (tau, n_tr, n_c) for key, tau, n_tr, n_c in zip(
            effects.keys, effects.tau, effects.n_treated, effects.n_control)})
    return tables


def assert_inference_close(got, want):
    assert (got.n_reps, got.n_failed, got.mode) == (want.n_reps, want.n_failed, want.mode)
    assert got.event.keys() == want.event.keys()
    assert got.group.keys() == want.group.keys()
    pairs = [(got.overall, want.overall),
             *((got.event[e], want.event[e]) for e in want.event),
             *((got.group[g], want.group[g]) for g in want.group)]
    for a, b in pairs:
        assert a.n_reps == b.n_reps
        assert a.se == b.se if b.se is None else a.se == pytest.approx(b.se, rel=TOL, abs=0)
        assert abs(a.ci_low - b.ci_low) <= TOL
        assert abs(a.ci_high - b.ci_high) <= TOL


# Outcome learners, by id suffix; the default (ridge) has none. In the
# depth-2 trees on the eight-unit panel a covariate cut and a period dummy
# can split off the same rows; their scores, which round differently for
# weights and for copies, tie within the gain guard, so both pick the
# lower feature.
G_LEARNERS = {"": LearnerSpec.ridge(1.0), "-lasso": LearnerSpec.lasso(0.05),
              "-mean": LearnerSpec.mean(), "-gbt": LearnerSpec.gbt(5, 2, 0.3, 2)}


@pytest.mark.parametrize("make_panel,n_folds,B,expect_failures,g_learner", [
    pytest.param(make_panel, n_folds, B, expect_failures, spec, id=name + suffix)
    for name, make_panel, n_folds, B, expect_failures in [
        ("null_panel", small_null_panel, 5, 12, False),
        ("some_failures", two_control_panel, 2, 30, True)]
    for suffix, spec in G_LEARNERS.items()])
def test_matches_the_replicate_that_fits_both_nuisances(monkeypatch, make_panel, n_folds,
                                                        B, expect_failures, g_learner):
    panel = make_panel()
    config = PipelineConfig(g_learner=g_learner, n_folds=n_folds, bootstrap_reps=B, seed=3)
    reference = both_nuisance_replicates(config, panel, B, seed=9)
    group_time_cells = aggregate.group_time_cells
    calls = []
    monkeypatch.setattr(aggregate, "group_time_cells",
                        lambda *args: calls.append(group_time_cells(*args)) or calls[-1])
    monkeypatch.setattr(aggregate, "estimate_group_time", None)  # never called
    inference = bootstrap(config, panel, B, seed=9, mode="full")

    # One weighted call per replicate, all over the point estimate's cells;
    # the present cells and their counts match the reference's exactly.
    assert len(calls) == B
    keys = calls[0][0]
    ref_tau = np.full((B, len(keys)), np.nan)
    ref_treated = np.zeros((B, len(keys)))
    for r, ((row_keys, tau, n_treated, n_control, _), table) in enumerate(zip(calls, reference)):
        assert row_keys == keys
        present = np.flatnonzero(~np.isnan(tau[0]))
        assert ({keys[j]: (n_treated[0, j], n_control[0, j]) for j in present}
                == {key: cell[1:] for key, cell in (table or {}).items()})
        for j in present:
            assert abs(tau[0, j] - table[keys[j]][0]) <= TOL
            ref_tau[r, j], ref_treated[r, j] = table[keys[j]][:2]

    # The same aggregation tail on the reference cells gives the same
    # n_failed, and every SE and CI bound within TOL.
    rows = iter(range(B))

    def reference_cells(*args):
        r = next(rows)
        return keys, ref_tau[r:r + 1], ref_treated[r:r + 1], None, ()

    monkeypatch.setattr(aggregate, "group_time_cells", reference_cells)
    want = bootstrap(config, panel, B, seed=9, mode="full")
    assert (0 < want.n_failed <= 0.2 * B) == expect_failures
    assert_inference_close(inference, want)


def test_refits_never_fit_the_treatment_model(monkeypatch):
    panel = small_null_panel()
    config = PipelineConfig(bootstrap_reps=4, bootstrap_mode="full", seed=3)
    kinds = Counter()
    fit = learners.fit

    def counting(spec, *args, **kwargs):
        kinds[spec.kind] += 1
        return fit(spec, *args, **kwargs)

    monkeypatch.setattr(learners, "fit", counting)
    bootstrap(config, panel, B=4, seed=3, mode="full")
    assert kinds == {"ridge": 4 * config.n_folds}

    kinds.clear()
    bootstrap(config, panel, B=4, seed=3, mode="fixed_nuisance")
    assert kinds == {"ridge": config.n_folds}

    kinds.clear()
    placebo_test(panel, replace(config, bootstrap_mode="fixed_nuisance"), shift=1)
    assert kinds == {"ridge": config.n_folds}
