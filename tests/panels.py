"""The one way the tests build a panel from rows: the PanelDataset constructor."""

import numpy as np

from sdidml.panel import PanelDataset


def panel_of(rows):
    """Panel of ``(unit, time, outcome, treatment, x0, x1, ...)`` tuples, in any
    order; the covariates are named x0, x1, ..."""
    units, times, outcomes, treatments, *covariates = zip(*rows)
    X = np.array(covariates, dtype=np.float64).reshape(len(covariates), len(units)).T
    return PanelDataset(units, times, outcomes, treatments, X,
                        [f"x{j}" for j in range(len(covariates))])
