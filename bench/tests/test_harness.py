"""The benchmark's own arithmetic: self time, percentiles, failure accounting, tracing."""

import numpy as np
import pytest

import denshift
from denshift import metrics
from layers import TARGETS, layer_metrics, train_accounting
from oracles import cutoff_average_precision, pairwise_auc
from spans import Tally, Tracer, self_time, tail_percentile, timing_summary, union_length
from workloads import ref_auc_roc, ref_average_precision


def span(sid, parent, name, t0, t1, attr=None):
    return (sid, parent, name, t0, t1, attr)


def test_union_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 4), (6, 7)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([(-5, 1), (9, 20)], 0, 10) == 2
    assert union_length([]) == 0


def test_self_time_nested_children():
    # a grandchild inside its parent adds nothing: only direct children are subtracted
    train = span(1, 0, "training.train", 0.0, 10.0)
    forward = span(2, 1, "nn.forward", 1.0, 4.0)
    assert self_time(train, [forward]) == 7.0
    assert self_time(forward, [span(3, 2, "x", 2.0, 3.0)]) == 2.0


def test_self_time_overlapping_children():
    pool = span(1, 0, "training.pool", 0.0, 10.0)
    jobs = [span(2, 1, "training.job", 0.0, 6.0), span(3, 1, "training.job", 0.0, 5.0),
            span(4, 1, "training.job", 5.0, 9.0)]
    assert self_time(pool, jobs) == 1.0


def test_layer_shares_account_for_the_train_span():
    spans = [
        span(1, 0, "bench.op", 0.0, 10.0, 0),
        span(2, 1, "training.train", 0.0, 10.0, [2, 4]),
        span(3, 2, "sampling.next_batch_pair", 0.0, 1.0),
        span(4, 2, "nn.forward", 1.0, 3.0),
        span(5, 2, "losses.ce", 3.0, 4.0),
        span(6, 2, "nn.backward", 4.0, 6.0),
        span(7, 2, "nn.opt_step", 6.0, 7.0),
        span(8, 2, "training.predict", 7.5, 9.0, 100),
        span(9, 8, "nn.forward", 7.5, 8.5),  # validation forward: under predict, not a step
    ]
    m = layer_metrics(spans, first_pass_end=10.0)
    assert m["nn.forward.calls"][0] == 1
    assert m["nn.forward.share"][0] == pytest.approx(0.2)
    assert m["training.val.share"][0] == pytest.approx(0.15)
    assert m["training.train.self_share"][0] == pytest.approx(0.15)
    assert m["training.train.steps"][0] == 4 and m["training.train.epochs_run"][0] == 2
    assert m["training.predict.rows_per_s"][0] == pytest.approx(100 / 1.5)
    assert train_accounting(m) == pytest.approx(1.0)


def test_pool_busy_share_and_tail():
    spans = [
        span(1, 0, "training.pool", 0.0, 10.0),
        span(2, 1, "training.job", 0.0, 6.0, 101),
        span(3, 1, "training.job", 0.0, 5.0, 102),
        span(4, 1, "training.job", 5.0, 9.0, 102),
    ]
    m = layer_metrics(spans, first_pass_end=10.0)
    assert m["training.pool.jobs"][0] == 3
    assert m["training.pool.busy_share"][0] == pytest.approx(15 / 20)
    assert m["training.pool.tail_s"][0] == pytest.approx(3.0)


def test_counts_use_the_first_pass_only():
    spans = [span(3, 0, "training.train", 0.0, 6.0),
             span(1, 3, "nn.opt_step", 0.0, 1.0), span(2, 3, "nn.opt_step", 5.0, 6.0)]
    m = layer_metrics(spans, first_pass_end=2.0)
    assert m["nn.opt_step.calls"][0] == 1
    assert m["nn.opt_step.us_per_call"][0] == pytest.approx(1e6)


def test_absent_target_drops_its_metrics():
    m = layer_metrics([], first_pass_end=1.0, absent_spans={"nn.opt_step"})
    assert not any(k.startswith("nn.opt_step.") for k in m)
    assert "nn.forward.calls" in m


@pytest.mark.parametrize("n, expected", [(9, None), (19, None), (20, 50.0), (40, 75.0),
                                         (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    got = tail_percentile(range(n))
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert sum(1 for v in range(n) if v > value) >= 10


def test_timing_summary_states_count():
    out = timing_summary([3.0, 1.0, 2.0])
    assert out == {"median": 2.0, "n": 3}
    assert timing_summary(list(range(20)))["p50"] == 9


def test_tally_counts_raises_exit_codes_and_checks():
    tally = Tally()
    assert tally.run("ok", lambda: 5) == 5
    assert tally.run("boom", lambda: 1 / 0) is None
    assert tally.command("cmd ok", lambda argv: 0, [])
    assert not tally.command("cmd bad", lambda argv: 2, [])
    assert not tally.command("cmd raises", lambda argv: [][1], [])
    assert tally.check("fine", True)
    assert not tally.check("wrong", False, "detail")
    assert (tally.attempted, tally.failed) == (7, 4)
    assert tally.failed_share == pytest.approx(4 / 7)
    assert Tally().failed_share == 0.0


def test_tracer_wraps_every_lookup_and_restores(tmp_path):
    original = denshift.metrics.auc_roc
    tracer = Tracer(tmp_path)
    tracer.install(TARGETS + [("denshift.nn.fused_step", "nn.fused_step", "call", None)])
    try:
        assert tracer.absent == ["denshift.nn.fused_step"]
        assert denshift.metrics.auc_roc is not original and denshift.auc_roc is denshift.metrics.auc_roc
        scored = metrics.ScoredSet(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
        with tracer.span("bench.op"):
            report = denshift.metrics.score_report(scored)
    finally:
        tracer.close()
    assert denshift.metrics.auc_roc is original and denshift.auc_roc is original
    assert report["auc_roc"] == 0.75
    by_name = {s[2]: s for s in tracer.spans}
    assert by_name["metrics.auc_roc"][1] == by_name["metrics.score_report"][0]
    assert by_name["metrics.score_report"][1] == by_name["bench.op"][0]
    assert by_name["metrics.auc_roc"][5] == 4


def test_reference_metrics_match_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        scores = np.round(rng.random(60), 1)  # heavy ties
        labels = (rng.random(60) < 0.3).astype(int)
        labels[:2] = (0, 1)
        assert ref_auc_roc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)
        assert ref_average_precision(scores, labels) == pytest.approx(
            cutoff_average_precision(scores, labels), abs=1e-12)
