"""The full-mode bootstrap refits only the outcome model.

The contrast cells read y_tilde = Y - g_hat alone, so a replicate cross-fits
g on its fresh-id panel and never fits the treatment model m. These tests
pin that this reproduces, to the bit, the replicate that ran the whole of
``estimate_effects`` (both nuisances), kept here as the reference, and
that no refit fits m.
"""

import importlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sdidml.aggregate import bootstrap, placebo_test
from sdidml.crossfit import FoldAssignment, assign_folds
from sdidml.errors import DataError, EstimationError, LearnerError
from sdidml.panel import build_panel, subset_units
from sdidml.pipeline import PipelineConfig, estimate_effects
from sdidml.simulate import generate, scenario

# The package attribute ``sdidml.aggregate`` is the aggregate() function.
aggregate = importlib.import_module("sdidml.aggregate")
learners = importlib.import_module("sdidml.learners")


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


def both_nuisance_replicates(config, panel, B, seed):
    """Cell maps of the replicate that ran all of ``estimate_effects``.

    Replicate r resamples with seed ``seed + r``, gives the copies fresh
    ids, puts every copy in its unit's fold, and cross-fits both nuisances;
    None marks a failed replicate.
    """
    maps = []
    for r in range(B):
        idx = np.random.default_rng(seed + r).integers(0, panel.n_units, size=panel.n_units)
        fresh = [f"b{k:06d}.{panel.units[i]}" for k, i in enumerate(idx)]
        fold_of = assign_folds(panel, config.n_folds, seed + r).fold_of_unit
        folds = FoldAssignment(config.n_folds,
                               {f: fold_of[panel.units[i]] for f, i in zip(fresh, idx)})
        try:
            bpanel = subset_units(panel, idx, fresh)
            maps.append(estimate_effects(bpanel, config, folds).effects.cells)
        except (DataError, EstimationError, LearnerError):
            maps.append(None)
    return maps


# Logistic fits on the 8-unit panel's tiny folds may stop at max_iter.
@pytest.mark.filterwarnings("ignore::sdidml.errors.ConvergenceWarning")
@pytest.mark.parametrize("make_panel,n_folds,B,expect_failures", [
    (small_null_panel, 5, 12, False),
    (two_control_panel, 2, 30, True),
], ids=["null_panel", "some_failures"])
def test_matches_the_replicate_that_fits_both_nuisances(monkeypatch, make_panel, n_folds,
                                                        B, expect_failures):
    panel = make_panel()
    config = PipelineConfig(n_folds=n_folds, bootstrap_reps=B, seed=3)
    reference_maps = both_nuisance_replicates(config, panel, B, seed=9)
    cell_rows = aggregate._cell_rows
    seen = []
    monkeypatch.setattr(aggregate, "_cell_rows",
                        lambda maps: seen.append(maps) or cell_rows(maps))
    inference = bootstrap(config, panel, B, seed=9, mode="full")
    assert seen == [reference_maps]  # every replicate's cells, to the bit

    # The same aggregation tail on the reference cells gives the same
    # n_failed and every SE and CI bound to the bit.
    monkeypatch.setattr(aggregate, "_cell_rows", lambda maps: cell_rows(reference_maps))
    reference = bootstrap(config, panel, B, seed=9, mode="full")
    assert (0 < reference.n_failed <= 0.2 * B) == expect_failures
    assert inference.n_failed == reference.n_failed
    assert inference == reference


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
