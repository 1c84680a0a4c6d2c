"""The one way the tests build a panel from rows: the PanelDataset constructor."""

import numpy as np

from sdidml.panel import PanelDataset, unit_rows


def panel_of(rows):
    """Panel of ``(unit, time, outcome, treatment, x0, x1, ...)`` tuples, in any
    order; the covariates are named x0, x1, ..."""
    units, times, outcomes, treatments, *covariates = zip(*rows)
    X = np.array(covariates, dtype=np.float64).reshape(len(covariates), len(units)).T
    return PanelDataset(units, times, outcomes, treatments, X,
                        [f"x{j}" for j in range(len(covariates))])


def fresh_id_panel(panel, idx):
    """The rows of the units with codes ``idx``, copy k of unit i renamed
    ``b<k>.<unit i>``; zero-padded, the fresh ids sort in draw order."""
    rows = unit_rows(panel, idx)
    fresh = np.array([f"b{k:06d}.{panel.units[i]}" for k, i in enumerate(idx)])
    lengths = panel.unit_starts[idx + 1] - panel.unit_starts[idx]
    return PanelDataset(np.repeat(fresh, lengths),
                        np.asarray(panel.periods)[panel.time_codes[rows]],
                        panel.outcomes[rows], panel.treatments[rows],
                        panel.covariates[rows], panel.covariate_names)
