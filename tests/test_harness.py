"""Evaluation harness metrics."""
import numpy as np
import pandas as pd
import pytest

from repro.core.query import Query
from repro.core.query import AqpResult
from repro.harness import EvalStats, evaluate, markdown_table, pct


class Oracle:
    """Perfect approach: answers exactly, with bounds, for testing."""

    def __init__(self, pdf, value_col):
        self.pdf, self.value_col = pdf, value_col
        self.storage_bytes = 1000
        self.build_seconds = 0.5

    def answer(self, q):
        t = q.truth(self.pdf, self.value_col)
        return AqpResult(t, 0.0, t - 1, t + 1, processed=5, skipped_frac=0.9)


class Biased:
    def answer(self, q):
        return AqpResult(110.0, 20.0)


@pytest.fixture()
def pdf():
    rng = np.random.default_rng(0)
    return pd.DataFrame({"c": np.arange(200.0), "a": rng.random(200) * 10})


def test_evaluate_perfect(pdf):
    qs = [Query("sum", ("c",), (10.0,), (150.0,)), Query("avg", ("c",), (0.0,), (99.0,))]
    st = evaluate(Oracle(pdf, "a"), qs, pdf, "a", name="oracle")
    assert st.median_rel_err == 0.0
    assert st.median_ci_ratio == 0.0
    assert st.hard_bound_violations == 0
    assert st.mean_processed == 5
    assert st.mean_skip_rate == pytest.approx(0.9)
    assert st.storage_mb == pytest.approx(0.001)
    assert st.build_seconds == 0.5
    assert st.name == "oracle"


def test_evaluate_bias_measured(pdf):
    q = Query("sum", ("c",), (0.0,), (199.0,))
    truth = pdf["a"].sum()
    st = evaluate(Biased(), [q], pdf, "a")
    assert st.median_rel_err == pytest.approx(abs(110 - truth) / truth)
    assert st.median_ci_ratio == pytest.approx(20 / truth)


def test_evaluate_skips_zero_truth(pdf):
    pdf2 = pdf.copy()
    pdf2.loc[pdf2["c"] < 100, "a"] = 0.0
    qs = [Query("sum", ("c",), (0.0,), (50.0,))]  # truth == 0
    st = evaluate(Biased(), qs, pdf2, "a")
    assert np.isnan(st.median_rel_err)


def test_bound_violation_counted(pdf):
    class BadBounds:
        def answer(self, q):
            return AqpResult(0.0, 0.0, lb=-2.0, ub=-1.0)

    q = Query("sum", ("c",), (0.0,), (199.0,))
    st = evaluate(BadBounds(), [q], pdf, "a")
    assert st.hard_bound_violations == 1


def test_pct_formatting():
    assert pct(0.00123) == "0.123%"
    assert pct(float("nan")) == "n/a"


def test_markdown_table():
    t = markdown_table(["a", "b"], [["1", "2"], ["3", "4"]])
    assert t.splitlines()[0] == "| a | b |"
    assert "| 3 | 4 |" in t


def test_latency_recorded(pdf):
    st = evaluate(Oracle(pdf, "a"), [Query("sum", ("c",), (0.0,), (10.0,))], pdf, "a")
    assert st.mean_latency_ms >= 0
    assert st.max_latency_ms >= st.mean_latency_ms
