"""scripts/ab.py's statistics on a fixed synthetic sample: quartiles, wins,
the gap between the medians against the parent's IQR, and the claim rule."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "scripts" / "ab.py")
AB = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(AB)

METRICS = [{"name": "verify_s", "better": "lower"}, {"name": "headroom", "better": "higher"}]


def pairs(parent: dict, change: dict) -> tuple[list[dict], list[dict]]:
    """Per-pair metric dicts from per-metric lists."""
    return ([dict(zip(parent, v)) for v in zip(*parent.values())],
            [dict(zip(change, v)) for v in zip(*change.values())])


def test_summary_of_a_fixed_sample():
    old, new = pairs(
        {"verify_s": [10, 11, 12, 13, 14, 15, 16, 17, 18, 19], "headroom": [1.0] * 10},
        {"verify_s": [7, 8, 9, 10, 11, 12, 13, 14, 15, 20], "headroom": [2.0] * 9 + [1.0]},
    )
    verify, headroom = AB.summarize(old, new, METRICS)
    # inclusive quartiles: Q1 at position 2.25, the median at 4.5, Q3 at 6.75
    assert verify["parent"] == (12.25, 14.5, 16.75)
    assert verify["change"] == (9.25, 11.5, 13.75)
    assert verify["parent_iqr"] == 4.5 and verify["gap"] == 3.0
    assert verify["wins"] == 9 and verify["pairs"] == 10
    assert not verify["claim"]  # 9 of 10 wins, but the gap is inside the parent's IQR
    assert verify["relative"] == pytest.approx(-3.0 / 14.5)
    # higher is better; a tie is no win
    assert headroom["wins"] == 9 and headroom["gap"] == 1.0 and headroom["parent_iqr"] == 0.0
    assert headroom["claim"]
    assert len(AB.format_rows([verify, headroom])) == 3


def test_eight_wins_in_ten_make_no_claim():
    old, new = pairs({"verify_s": [10.0] * 10, "headroom": [1.0] * 10},
                     {"verify_s": [5.0] * 8 + [11.0] * 2, "headroom": [1.0] * 10})
    verify, headroom = AB.summarize(old, new, METRICS)
    assert verify["wins"] == 8 and verify["gap"] == 5.0 > verify["parent_iqr"] == 0.0
    assert not verify["claim"]
    assert headroom["wins"] == 0 and not headroom["claim"]


def test_seed_ranges():
    assert AB.seed_list("101-106") == [101, 102, 103, 104, 105, 106]
    assert AB.seed_list("7") == [7]
