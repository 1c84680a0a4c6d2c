"""The full-mode bootstrap refits only the outcome model, with weights.

The contrast cells read y_tilde = Y - g_hat alone, so a replicate cross-fits
g and never fits the treatment model m. It fits the distinct drawn units
once each, weighted by how many times each was drawn; its residuals go back
onto the original units, and ``group_time_cells`` takes the replicates'
residuals and weight rows in stacked chunks. These tests pin that this
reproduces, for every outcome learner kind, the replicate that copied each
drawn unit under a fresh id, cross-fit both nuisances on that panel and
estimated its cells, kept here as the reference, that no refit fits m or
a fold with no row to predict, and that any chunking gives the results of
one stack.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from panels import fresh_id_panel, panel_of
from sdidml import aggregate, learners
from sdidml.aggregate import aggregate_schemes, bootstrap, placebo_test
from sdidml.config import BOOTSTRAP_MODES, PipelineConfig
from sdidml.crossfit import assign_folds, crossfit_nuisance, nuisance_features
from sdidml.didcore import estimate_group_time
from sdidml.errors import DataError, EstimationError, LearnerError
from sdidml.learners import LearnerSpec
from sdidml.pipeline import estimate_effects
from sdidml.simulate import generate, scenario

# A unit drawn k times enters the fits and the cell sums once with weight k,
# not as k copies, so sums run in another order: tau, SEs (relative) and CI
# bounds may move in the last digits of a double.
TOL = 1e-12


def small_null_panel(n_units=60, seed=11):
    return generate(replace(scenario("S4"), n_units=n_units, seed=seed)).panel


def two_control_panel():
    """Eight units, two never treated: about 10% of resamples draw no control."""
    rng = np.random.default_rng(17)
    rows = []
    for i in range(8):
        g = None if i < 2 else (3 if i < 5 else 4)
        for t in (1, 2, 3, 4, 5):
            d = int(g is not None and t >= g)
            rows.append((f"u{i}", t, rng.standard_normal() + d, d, rng.standard_normal()))
    return panel_of(rows)


def both_nuisance_replicates(config, panel, B, seed):
    """Cell tables ``{(g, t): (tau, n_treated, n_control)}`` of the replicate
    that cross-fits both nuisances.

    Replicate r resamples with seed ``seed + r``, gives the copies fresh
    ids, puts every copy in its unit's fold, cross-fits both nuisances and
    estimates the cells on Y - g_hat; None marks a failed replicate.
    """
    tables = []
    for r in range(B):
        idx = np.random.default_rng(seed + r).integers(0, panel.n_units, size=panel.n_units)
        # zero-padded fresh ids sort in draw order: copy k is unit code k
        folds = assign_folds(panel, config.n_folds, seed + r)[idx]
        try:
            copies = fresh_id_panel(panel, idx)
            fits = crossfit_nuisance(copies, config, folds)
            effects = estimate_group_time(copies, fits.y_tilde, config)
        except (DataError, EstimationError, LearnerError):
            tables.append(None)
            continue
        tables.append({key: (tau, n_tr, n_c) for key, tau, n_tr, n_c in zip(
            effects.keys, effects.tau, effects.n_treated, effects.n_control)})
    return tables


def assert_inference_close(got, want):
    assert (got.n_reps, got.n_failed) == (want.n_reps, want.n_failed)
    assert got.summaries.keys() == want.summaries.keys()
    for key, b in want.summaries.items():
        a = got.summaries[key]
        assert a.att == b.att
        if b.se is None:
            assert (a.se, a.ci_low, a.ci_high) == (None, None, None), key
            continue
        assert a.se == pytest.approx(b.se, rel=TOL, abs=0)
        assert abs(a.ci_low - b.ci_low) <= TOL
        assert abs(a.ci_high - b.ci_high) <= TOL


def point_results(panel, config):
    """The point summaries of ``panel`` under ``config``."""
    return aggregate_schemes(estimate_effects(panel, config).effects)


# Outcome learners, by id suffix; the default (ridge) has none. Ridge
# with lambda > 0 fits every fold from per-fold moments, ridge with
# lambda = 0 from the rows, as the other kinds do. That one runs on the
# null panel alone: on the eight-unit panel a complement often holds one
# distinct unit, too few rows for a full-rank design, and 8 of 30
# replicates fail, more than the bootstrap allows. In the
# depth-2 trees on the eight-unit panel a covariate cut and a period dummy
# can split off the same rows; their scores, which round differently for
# weights and for copies, tie within the gain guard, so both pick the
# lower feature.
G_LEARNERS = {"": LearnerSpec.ridge(1.0), "-ridge0": LearnerSpec.ridge(0.0),
              "-lasso": LearnerSpec.lasso(0.05), "-mean": LearnerSpec.mean(),
              "-gbt": LearnerSpec.gbt(5, 2, 0.3, 2)}


@pytest.mark.parametrize("make_panel,n_folds,B,expect_failures,g_learner", [
    pytest.param(make_panel, n_folds, B, expect_failures, spec, id=name + suffix)
    for name, make_panel, n_folds, B, expect_failures in [
        ("null_panel", small_null_panel, 5, 12, False),
        ("some_failures", two_control_panel, 2, 30, True)]
    for suffix, spec in G_LEARNERS.items()
    if not (name == "some_failures" and suffix == "-ridge0")])
def test_matches_the_replicate_that_fits_both_nuisances(monkeypatch, make_panel, n_folds,
                                                        B, expect_failures, g_learner):
    panel = make_panel()
    config = PipelineConfig(g_learner=g_learner, n_folds=n_folds, bootstrap_reps=B, seed=3)
    reference = both_nuisance_replicates(config, panel, B, seed=9)
    point = point_results(panel, config)
    group_time_cells = aggregate.group_time_cells
    calls = []
    monkeypatch.setattr(aggregate, "group_time_cells",
                        lambda *args: calls.append(group_time_cells(*args)) or calls[-1])
    monkeypatch.setattr(aggregate, "estimate_group_time", None)  # never called
    inference = bootstrap(replace(config, seed=9), panel, "full", None, point)

    # One weighted call over the point estimate's cells gives every
    # replicate; row r's present cells and their counts match replicate r
    # of the reference exactly.
    (keys, tau, n_treated, n_control, _), = calls
    assert len(tau) == B
    ref_tau = np.full((B, len(keys)), np.nan)
    ref_treated = np.zeros((B, len(keys)))
    for r, table in enumerate(reference):
        present = np.flatnonzero(~np.isnan(tau[r]))
        assert ({keys[j]: (n_treated[r, j], n_control[r, j]) for j in present}
                == {key: cell[1:] for key, cell in (table or {}).items()})
        for j in present:
            assert abs(tau[r, j] - table[keys[j]][0]) <= TOL
            ref_tau[r, j], ref_treated[r, j] = table[keys[j]][:2]

    # The same aggregation tail on the reference cells gives the same
    # n_failed, and every SE and CI bound within TOL.
    def reference_cells(*args):
        return keys, ref_tau, ref_treated, None, ()

    monkeypatch.setattr(aggregate, "group_time_cells", reference_cells)
    want = bootstrap(replace(config, seed=9), panel, "full", None, point)
    assert (0 < want.n_failed <= 0.2 * B) == expect_failures
    assert_inference_close(inference, want)


def test_refits_never_fit_the_treatment_model(monkeypatch):
    # Each refit is one held-out fit call of g, for all of its folds.
    panel = small_null_panel()
    config = PipelineConfig(bootstrap_reps=4, bootstrap_mode="full", seed=3)
    kinds = Counter()
    fit = learners.fit

    def counting(spec, *args, **kwargs):
        kinds[spec.kind] += 1
        return fit(spec, *args, **kwargs)

    artifacts = estimate_effects(panel, config)
    y_tilde, point = artifacts.fits.y_tilde, aggregate_schemes(artifacts.effects)
    monkeypatch.setattr(learners, "fit", counting)
    bootstrap(config, panel, "full", None, point)
    assert kinds == {"ridge": 4}

    kinds.clear()
    bootstrap(config, panel, "fixed_nuisance", y_tilde, point)  # reuses the point residuals
    assert kinds == {}

    kinds.clear()
    placebo_test(panel, replace(config, bootstrap_mode="fixed_nuisance", placebo_shift=1))
    assert kinds == {"ridge": 1}


def test_treatment_model_fits_once_per_cohort_and_fold(monkeypatch):
    # The point estimate fits m once per fold for each cohort with a base
    # period, on one row per unit of the cohort's sample; no refit fits it.
    panel = generate(replace(scenario("S3"), seed=2)).panel
    config = PipelineConfig(bootstrap_reps=2, seed=3)
    m_rows = []
    fit = learners.fit

    def counting(spec, features, *args, **kwargs):
        if spec == config.m_learner:
            m_rows.append(features.shape[0])
        return fit(spec, features, *args, **kwargs)

    monkeypatch.setattr(learners, "fit", counting)
    artifacts = estimate_effects(panel, config)
    y_tilde, point = artifacts.fits.y_tilde, aggregate_schemes(artifacts.effects)
    cohorts = {g for g in panel.cohort_times
               if g - 1 - config.anticipation in panel.periods}
    assert len(cohorts) == 1
    assert len(m_rows) == len(cohorts) * config.n_folds
    assert max(m_rows) < panel.n_units

    m_rows.clear()
    for mode in BOOTSTRAP_MODES:
        bootstrap(config, panel, mode, y_tilde, point)
    placebo_test(panel, replace(config, placebo_shift=1))
    assert m_rows == []


def every_fold_residuals(panel, config, folds, sample_weight=None):
    """Y - g_hat with a fit for every fold, also one with no row to predict."""
    w = learners.check_sample_weight(sample_weight, panel.n_obs)
    features = nuisance_features(panel, w)
    fold_of_obs = folds[panel.unit_codes]
    g_hat = np.empty(panel.n_obs)
    for k in range(config.n_folds):
        train, test = fold_of_obs != k, fold_of_obs == k
        model = learners.fit(config.g_learner, features[train], panel.outcomes[train],
                             None if w is None else w[train])
        g_hat[test] = learners.predict(model, features[test])
    return panel.outcomes - g_hat


def test_a_fold_with_no_row_to_predict_is_not_fit(monkeypatch):
    # Sixteen units in five folds: in 38 (replicate, fold) pairs of 199
    # replicates, the replicate drew no unit of the fold.
    panel = generate(replace(scenario("S1"), n_units=16)).panel
    config = PipelineConfig(bootstrap_reps=199)
    point = point_results(panel, config)
    fits = Counter()  # models fit, one per fold of a held-out fit call
    fit = learners.fit

    def counting(spec, *args, **kwargs):
        model = fit(spec, *args, **kwargs)
        fits[spec.kind] += len(model.models) if kwargs.get("folds") is not None else 1
        return model

    monkeypatch.setattr(learners, "fit", counting)
    got = bootstrap(config, panel, "full", None, point)
    assert fits == {"ridge": 199 * 5 - 38}
    fits.clear()
    monkeypatch.setattr(aggregate, "outcome_residuals", every_fold_residuals)
    want = bootstrap(config, panel, "full", None, point)
    assert fits == {"ridge": 199 * 5}
    assert want.n_failed == 0
    # the held-out ridge fits pool per-fold moments, the reference fits rows
    assert_inference_close(got, want)


@pytest.mark.parametrize("make_panel,n_folds,B,per_chunk", [
    (lambda: generate(scenario("S2")).panel, 5, 40, 15),
    (two_control_panel, 2, 30, 14),
], ids=["S2", "failure_in_a_middle_chunk"])
def test_chunks_give_the_results_of_one_stack(monkeypatch, make_panel, n_folds, B,
                                             per_chunk):
    panel = make_panel()
    config = PipelineConfig(n_folds=n_folds, bootstrap_reps=B, seed=9)
    point = point_results(panel, config)
    group_time_cells = aggregate.group_time_cells
    stacks = []

    def recording(panel, y, *args):
        stacks.append(y.copy())
        return group_time_cells(panel, y, *args)

    monkeypatch.setattr(aggregate, "group_time_cells", recording)
    one = bootstrap(config, panel, "full", None, point)
    assert [len(y) for y in stacks] == [B]  # the default holds every test panel's B
    stacks.clear()
    monkeypatch.setattr(aggregate, "_STACK_ELEMENTS", per_chunk * panel.n_obs)
    chunked = bootstrap(config, panel, "full", None, point)
    sizes = [len(y) for y in stacks]
    assert len(sizes) >= 3 and set(sizes[:-1]) == {per_chunk} and sum(sizes) == B
    if n_folds == 2:  # a replicate whose refit failed sits in a middle chunk
        assert any(np.isnan(y).all(axis=1).any() for y in stacks[1:-1])
        assert one.n_failed > 0
    assert (chunked.n_reps, chunked.n_failed) == (one.n_reps, one.n_failed)
    assert repr(chunked) == repr(one)
