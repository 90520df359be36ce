"""A synthetic task whose only informative series is the lagged target."""

from __future__ import annotations

import datetime as dt

import numpy as np

from extremecast.data import TimeSeriesTable
from extremecast.rng import Rng


def persistence_task_table(seed: int, n_days: int = 700, phi: float = 0.97,
                           sigma: float = 1.0,
                           start: dt.date = dt.date(2018, 1, 1)) -> TimeSeriesTable:
    """Highly persistent target plus pure-noise companions.

    The only informative series is tempmax itself, so any sound importance
    method must rank the lagged target first.
    """
    rng = Rng(seed, "synthetic")
    eps = rng.gaussian_array(n_days, 0.0, sigma)
    ar = np.zeros(n_days)
    for i in range(1, n_days):
        ar[i] = phi * ar[i - 1] + eps[i]
    tempmax = 20.0 + ar
    noise = Rng(seed, "synthetic/aux")
    columns = {
        "tempmax": tempmax,
        "tempmin": noise.gaussian_array(n_days, 10.0, 3.0),
        "temp": noise.gaussian_array(n_days, 15.0, 3.0),
        "feelslike": noise.gaussian_array(n_days, 15.0, 3.0),
        "humidity": noise.gaussian_array(n_days, 50.0, 10.0),
        "precip": np.maximum(noise.gaussian_array(n_days, 0.0, 1.0), 0.0),
        "sealevelpressure": noise.gaussian_array(n_days, 1013.0, 4.0),
    }
    dates = [start + dt.timedelta(days=i) for i in range(n_days)]
    return TimeSeriesTable(dates, columns)
