"""The verdicts `tools/bench_pairs.py` states, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

RATE = {"name": "rays_per_s", "unit": "rays/s", "better": "higher", "bound": 0.25}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


def runs_of(metric, parent, change):
    """One run per value, pair i holding parent[i] and change[i]."""
    return [
        {"side": side, "pair": i, "metrics": {metric["name"]: {"value": v}}}
        for side, values in (("parent", parent), ("change", change))
        for i, v in enumerate(values)
    ]


def verdicts(metric, parent, change):
    entry = bench_pairs.summarize(runs_of(metric, parent, change), [metric])[metric["name"]]
    return entry["within_bound"], entry["unresolved"], entry["gain"]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]


@pytest.mark.parametrize("change, expected", [
    # Faster on every pair, by far more than the parent's spread.
    ([v * 1.5 for v in PARENT], (True, False, True)),
    # The same runs: no gain, no regression.
    (PARENT, (True, False, False)),
    # 20 % slower: inside the 25 % bound.
    ([v * 0.8 for v in PARENT], (True, False, False)),
    # 30 % slower: a regression.
    ([v * 0.7 for v in PARENT], (False, False, False)),
    # Faster on 9 of 10 pairs is a gain; on 8 of 10 it is not.
    ([v + 10.0 for v in PARENT[:9]] + [90.0], (True, False, True)),
    ([v + 10.0 for v in PARENT[:8]] + [90.0, 90.0], (True, False, False)),
])
def test_rate_verdicts(change, expected):
    assert verdicts(RATE, PARENT, change) == expected


def test_ties_count_for_neither_side():
    # Nine ties and one win: 1 of 10 pairs won.
    change = PARENT[:9] + [200.0]
    entry = bench_pairs.summarize(runs_of(RATE, PARENT, change), [RATE])["rays_per_s"]
    assert (entry["change_wins"], entry["ties"], entry["gain"]) == (1, 9, False)


def test_lower_is_better():
    parent = [2.0] * 10
    assert verdicts(SETUP, parent, [1.0] * 10) == (True, False, True)
    assert verdicts(SETUP, parent, [2.6] * 10) == (False, False, False)


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [50.0, 150.0] * 5  # q3 - q1 = 100, bound 25
    assert verdicts(RATE, parent, [v + 1.0 for v in parent]) == (True, True, False)
    # Unless every change run reads better than every parent run.
    assert verdicts(RATE, parent, [400.0] * 10) == (True, False, True)
