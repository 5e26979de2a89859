"""Shared test fixtures: small datasets at SF~=0.01 scale and pre-built
synopses (session-scoped — building a synopsis runs a Spark job, so tests
share builds and assert many properties against each one)."""
from __future__ import annotations

import numpy as np
import pytest

from repro import synth_data
from repro.baselines.aqppp import build_aqppp_1d
from repro.baselines.uniform import UniformSampling
from repro.core.synopsis import PassSynopsis


@pytest.fixture(scope="session")
def intel_pdf():
    return synth_data.intel_wireless_pdf(n=6000)


@pytest.fixture(scope="session")
def insta_pdf():
    return synth_data.instacart_pdf(n=6000, n_products=500)


@pytest.fixture(scope="session")
def nyc_pdf():
    return synth_data.nyc_taxi_pdf(n=8000)


@pytest.fixture(scope="session")
def adv_pdf():
    return synth_data.adversarial_pdf(n=6000)


@pytest.fixture(scope="session")
def intel_df(spark, intel_pdf):
    df = spark.createDataFrame(intel_pdf).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def insta_df(spark, insta_pdf):
    df = spark.createDataFrame(insta_pdf).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def nyc_df(spark, nyc_pdf):
    df = spark.createDataFrame(nyc_pdf).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def intel_synopsis(intel_df) -> PassSynopsis:
    """PASS over the Intel stand-in: 16 ADP partitions, 600 total samples."""
    return PassSynopsis.build_1d(
        intel_df, "time", "light", k_partitions=16, sample_total=600, m_opt=512, seed=7
    )


@pytest.fixture(scope="session")
def nyc_kd_synopsis(nyc_df) -> PassSynopsis:
    """KD-PASS over 3 NYC predicate dims, 64 leaves, 800 samples.

    Samples additionally carry ``dropoff_time`` so workload-shift queries
    (§5.4.1) can filter on a non-indexed attribute."""
    cols = synth_data.NYC_PREDICATES[:3]
    return PassSynopsis.build_kd(
        nyc_df,
        cols,
        "trip_distance",
        k_leaves=64,
        sample_total=800,
        m_opt=1024,
        sample_cols=cols + ["dropoff_time"],
        seed=7,
    )


@pytest.fixture(scope="session")
def nyc_1d_synopsis(nyc_df) -> PassSynopsis:
    """1-D PASS over NYC pickup_time — smooth aggregate distribution, used
    for the CI-coverage test (the Intel stand-in's heavy-tailed spikes make
    small-sample CIs intrinsically unreliable, which §2.1.1 discusses)."""
    return PassSynopsis.build_1d(
        nyc_df, "pickup_time", "trip_distance", k_partitions=16,
        sample_total=800, m_opt=512, seed=7,
    )


@pytest.fixture(scope="session")
def us_small(intel_df) -> UniformSampling:
    """US over the Intel stand-in: a 300-row uniform sample."""
    return UniformSampling.build(intel_df, ["time"], "light", k=300, seed=1)


@pytest.fixture(scope="session")
def aqppp(intel_df):
    """AQP++ over the Intel stand-in: 16 hill-climbed partitions + 300
    uniform samples."""
    return build_aqppp_1d(intel_df, "time", "light", n_partitions=16, k_sample=300, m_opt=400, seed=1)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
