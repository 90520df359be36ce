"""Deterministic synthetic daily-weather tables for tests and demos.

The flagship series is an annual sinusoid plus AR(1) noise plus a handful of
injected single-day spikes; companion columns (tempmin, temp, humidity, ...)
are derived from it with independent noise so the full feature pipeline has
something to chew on.  Everything is reproducible from (seed, parameters)
through the package's own stream generator.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from .data import TimeSeriesTable
from .rng import Rng


def sinusoid_ar_table(seed: int, n_days: int = 2000, amplitude: float = 15.0,
                      phi: float = 0.7, sigma: float = 1.5, n_spikes: int = 20,
                      spike_magnitude: float = 8.0, base_level: float = 25.0,
                      start: dt.date = dt.date(2017, 1, 1)) -> TimeSeriesTable:
    """Annual sinusoid + AR(1)(phi, sigma) + n_spikes single-day +-spikes."""
    rng = Rng(seed, "synthetic")
    t = np.arange(n_days, dtype=np.float64)
    season = amplitude * np.sin(2.0 * np.pi * t / 365.25)
    eps = rng.gaussian_array(n_days, 0.0, sigma)
    ar = np.zeros(n_days)
    for i in range(1, n_days):
        ar[i] = phi * ar[i - 1] + eps[i]
    spikes = np.zeros(n_days)
    if n_spikes:
        picked = []
        while len(picked) < n_spikes:
            day = rng.randint(n_days)
            if day not in picked:
                picked.append(day)
        for day in picked:
            spikes[day] = spike_magnitude if rng.uniform() < 0.5 else -spike_magnitude
    tempmax = base_level + season + ar + spikes

    aux = Rng(seed, "synthetic/aux")
    spread = 8.0 + aux.gaussian_array(n_days, 0.0, 1.0)
    tempmin = tempmax - np.abs(spread)
    temp = 0.5 * (tempmax + tempmin)
    feelslike = temp + aux.gaussian_array(n_days, 0.0, 0.5)
    humidity = np.clip(55.0 - 0.6 * (tempmax - base_level)
                       + aux.gaussian_array(n_days, 0.0, 5.0), 5.0, 100.0)
    precip = np.maximum(aux.gaussian_array(n_days, -1.0, 2.0), 0.0)
    pressure = 1013.0 + aux.gaussian_array(n_days, 0.0, 4.0)

    dates = [start + dt.timedelta(days=i) for i in range(n_days)]
    columns = {
        "tempmax": tempmax, "tempmin": tempmin, "temp": temp,
        "feelslike": feelslike, "humidity": humidity, "precip": precip,
        "sealevelpressure": pressure,
    }
    return TimeSeriesTable(dates, columns)


def table_to_csv(table: TimeSeriesTable, path: str) -> None:
    """Write a table as the CSV layout the loader expects: each value as
    ``repr`` of its float, a NaN as a blank cell."""
    names = sorted(table.columns)
    columns = [np.asarray(table.columns[n], dtype=np.float64).tolist() for n in names]
    lines = [",".join(["datetime"] + names)]
    for d, *values in zip(table.dates, *columns):
        lines.append(",".join([d.isoformat()]
                              + ["" if v != v else repr(v) for v in values]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
