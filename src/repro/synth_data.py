"""Synthetic stand-ins for the PASS (SIGMOD'21) evaluation datasets.

Three generators replace the real datasets of §5.1.1 (Intel Wireless,
Instacart, NYC Taxi) and one builds the §5.3 adversarial dataset. Each
returns a pandas DataFrame: the AQP harness keeps that driver-side copy
for ground truth, and the synopsis build path consumes
``spark.createDataFrame`` of it. All are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def intel_wireless_pdf(*, n: int = 100_000, seed: int = 10) -> pd.DataFrame:
    """Stand-in for the Intel Berkeley wireless-sensor dataset.

    Predicate column ``time`` (int, sorted, near-unique); aggregate column
    ``light``. Light follows a diurnal regime — near-zero at night, a high
    plateau during the day — with heavy-tailed positive spikes, which gives
    the locally-low-variance / regime-change structure along the predicate
    axis that PASS's partitioner exploits on the real data.
    """
    g = _rng(seed)
    t = np.arange(n, dtype=np.int64) * 31  # ~31s sampling period
    day_phase = (t % 86_400) / 86_400.0
    is_day = ((day_phase > 0.3) & (day_phase < 0.75)).astype(np.float64)
    base = is_day * (350.0 + 80.0 * np.sin(2 * np.pi * day_phase))
    noise = g.normal(0.0, 8.0, n) * (0.2 + is_day)
    spikes = (g.random(n) < 0.01) * g.lognormal(5.0, 1.0, n)
    light = np.clip(base + noise + spikes, 0.0, None)
    return pd.DataFrame({"time": t, "light": light})


def instacart_pdf(*, n: int = 100_000, n_products: int = 5_000, seed: int = 11) -> pd.DataFrame:
    """Stand-in for the Instacart ``order_products`` table.

    Predicate column ``product_id`` (duplicate-heavy, Zipf-popular);
    aggregate column ``reordered`` in {0,1} whose probability varies by
    product, so AVG/SUM over product ranges is non-trivial.
    """
    g = _rng(seed)
    ranks = np.arange(1, n_products + 1)
    w = 1.0 / ranks**1.05
    w /= w.sum()
    pid = g.choice(ranks, size=n, p=w)
    # Per-product reorder probability: popular products are reordered more.
    p_re = 0.25 + 0.6 / (1.0 + (ranks / 50.0))
    reordered = (g.random(n) < p_re[pid - 1]).astype(np.int64)
    return pd.DataFrame({"product_id": pid.astype(np.int64), "reordered": reordered})


NYC_PREDICATES = ["pickup_time", "pickup_date", "pu_location_id", "dropoff_date", "dropoff_time"]


def nyc_taxi_pdf(*, n: int = 200_000, seed: int = 12) -> pd.DataFrame:
    """Stand-in for NYC TLC Jan-2019 yellow-taxi trips.

    The five §5.4 predicate columns (``NYC_PREDICATES``) and the aggregate
    ``trip_distance`` (lognormal, correlated with pickup time-of-day and
    location so multi-dimensional templates are non-independent — the
    regime where KD-PASS beats independence-based models).
    """
    g = _rng(seed)
    pickup_date = g.integers(1, 32, n)  # day of January
    # Time-of-day in seconds with rush-hour mixture.
    mode = g.random(n)
    tod = np.where(
        mode < 0.35,
        g.normal(8.6 * 3600, 1.2 * 3600, n),
        np.where(mode < 0.75, g.normal(18.0 * 3600, 1.6 * 3600, n), g.random(n) * 86_400),
    )
    pickup_time = np.clip(tod, 0, 86_399).astype(np.int64)
    loc = g.integers(1, 266, n)
    # Trip distance: longer off-peak and from outer locations.
    rush = np.exp(-((pickup_time - 8.6 * 3600) ** 2) / (2 * (1.5 * 3600) ** 2)) + np.exp(
        -((pickup_time - 18.0 * 3600) ** 2) / (2 * (1.8 * 3600) ** 2)
    )
    mu = 0.6 + 0.004 * loc - 0.35 * rush
    dist = np.clip(g.lognormal(mu, 0.55, n), 0.05, 80.0)
    dur = (dist * 300 + g.normal(0, 240, n)).clip(60, 3 * 3600).astype(np.int64)
    dropoff_abs = pickup_date * 86_400 + pickup_time + dur
    return pd.DataFrame(
        {
            "pickup_time": pickup_time,
            "pickup_date": pickup_date.astype(np.int64),
            "pu_location_id": loc.astype(np.int64),
            "dropoff_date": (dropoff_abs // 86_400).astype(np.int64),
            "dropoff_time": (dropoff_abs % 86_400).astype(np.int64),
            # Absolute pickup timestamp — the paper's 1-D pickup_datetime
            # predicate column (§5.1.1).
            "pickup_ts": pickup_date * 86_400 + pickup_time,
            "trip_distance": dist,
        }
    )


def adversarial_pdf(*, n: int = 100_000, seed: int = 13) -> pd.DataFrame:
    """The §5.3 adversarial dataset, scaled by ``n``.

    Predicate column ``c`` with n unique values; the first 87.5% of tuples
    (in predicate order) have aggregate 0, the last 12.5% are N(100, 10).
    Equal partitioning wastes all its partitions on the zero region; the
    ADP optimiser concentrates partitions on the normal tail.
    """
    g = _rng(seed)
    cut = int(n * 0.875)
    a = np.concatenate([np.zeros(cut), g.normal(100.0, 10.0, n - cut)])
    return pd.DataFrame({"c": np.arange(n, dtype=np.int64), "a": a})

