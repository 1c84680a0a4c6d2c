"""A run's settings reach every stage: the cohort propensities and the
placebo test follow a control rule, an anticipation window and a placebo
shift other than the defaults."""

from dataclasses import replace

import numpy as np

from panels import panel_of
from sdidml.aggregate import aggregate_schemes
from sdidml.config import PipelineConfig
from sdidml.crossfit import assign_folds, outcome_residuals
from sdidml.didcore import estimate_group_time
from sdidml.panel import PanelDataset, control_pool
from sdidml.pipeline import run_pipeline
from sdidml.simulate import generate, scenario

CONFIG = PipelineConfig(control_rule="not_yet_treated", anticipation=1, placebo_shift=1,
                        bootstrap_reps=0, seed=6)


def unbalanced_s2_panel():
    """60 units of S2 (cohorts 3, 5 and 7), every fourth unit missing the base
    periods 1, 3 and 5 except its own adoption period."""
    panel = generate(replace(scenario("S2"), n_units=60, seed=4)).panel
    times = np.asarray(panel.periods)[panel.time_codes]
    adoption = panel.cohort_times[panel.unit_codes]
    keep = ~((panel.unit_codes % 4 == 0) & np.isin(times, (1, 3, 5)) & (times != adoption))
    return PanelDataset(np.asarray(panel.units)[panel.unit_codes[keep]], times[keep],
                        panel.outcomes[keep], panel.treatments[keep],
                        panel.covariates[keep], panel.covariate_names)


def test_cohort_propensities_and_placebo_follow_the_config():
    panel = unbalanced_s2_panel()
    result = run_pipeline(panel, CONFIG)

    # Cohort g's sample: g and its not-yet-treated controls at (g, g), each
    # observed at the base period g - 2.
    cohort_times = panel.cohort_times
    times = np.asarray(panel.periods)[panel.time_codes]
    samples, unobserved = {}, 0
    for g in (3, 5, 7):
        observed = np.zeros(panel.n_units, dtype=bool)
        observed[panel.unit_codes[times == g - 2]] = True
        in_sample = (cohort_times == g) | control_pool(cohort_times, g, g, "not_yet_treated", 1)
        samples[g] = np.flatnonzero(in_sample & observed).tolist()
        unobserved += int((in_sample & ~observed).sum())
    assert unobserved > 0
    assert {c.g: c.units.tolist() for c in result.artifacts.fits.propensities} == samples

    # The placebo: the rows before each unit's adoption, cohort g moved to
    # g - 1, g cross-fit on them and the contrast cells aggregated.
    adoption = cohort_times[panel.unit_codes]
    pseudo = panel_of([(panel.units[u], t, y, int(t >= g - 1), *x)
                       for u, t, y, g, x in zip(panel.unit_codes, times.tolist(),
                                                panel.outcomes, adoption, panel.covariates)
                       if t < g])
    y_tilde = outcome_residuals(pseudo, CONFIG,
                                assign_folds(pseudo, CONFIG.n_folds, CONFIG.seed))
    want = aggregate_schemes(estimate_group_time(pseudo, y_tilde, CONFIG)).overall.att
    assert result.placebo.att == want
    assert result.placebo.ci_low is None  # B = 0: no bootstrap


def test_summaries_with_fewer_than_two_replicates_get_no_se_and_no_ci():
    # On 16 units of S1 cohort 6's early event times are estimated by at
    # most one replicate: they get neither an SE nor a CI, the pre-trend
    # test leaves them out, and the run completes.
    for seed, B in ((22, 5), (7, 2)):
        panel = generate(replace(scenario("S1"), n_units=16, seed=seed)).panel
        config = PipelineConfig(n_folds=2, bootstrap_reps=B,
                                bootstrap_mode="fixed_nuisance", seed=seed)
        result = run_pipeline(panel, config)
        summaries = result.results.summaries
        sparse = {key for key, p in summaries.items() if p.se is None}
        assert {("e", -5), ("e", -4)} <= sparse
        for key, p in summaries.items():
            assert (p.ci_low is None) == (p.ci_high is None) == (key in sparse), key
        tested = [p.e for p in result.pretrend.per_e]
        assert tested and result.pretrend.dof == len(tested)
        assert not {("e", e) for e in tested} & sparse
