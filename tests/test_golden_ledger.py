"""The golden ledger (``tests/goldens.json``) and its one comparison helper.

A failing pin names the first key that differs, in the entry's order, with
both values: a store whose layout moved fails as "layout", not as "digest
differs".  The ledger's format is the one its regenerator writes, every
entry is checked by some test, and the CI changelog check names each changed
entry no added CHANGES.md line mentions.
"""

import copy
import re
from pathlib import Path

import numpy as np
import pytest

from repro.nvm.block import BlockLayout
from repro.simulation import simulate_store
from tests.conftest import (
    GOLDENS_PATH,
    build_store,
    check_golden,
    dump_goldens,
    load_goldens,
    store_stages,
    unnamed_changes,
)


def test_a_swapped_layout_fails_as_layout():
    store, trace = build_store(0)
    before = store_stages(store, [trace], simulate_store(store, trace))
    layout = store.tables["t-threshold"].layout
    order = layout.order.copy()
    order[[0, 1]] = order[[1, 0]]
    store.swap_layout("t-threshold", BlockLayout(order, layout.vectors_per_block))
    after = store_stages(store, [trace], simulate_store(store, trace))
    assert after["trace"] == before["trace"] and after["layout"] != before["layout"]
    with pytest.raises(AssertionError) as failure:
        check_golden("store", before, after)
    message = str(failure.value)
    assert "differs at layout:" in message
    assert before["layout"] in message and after["layout"] in message


def test_a_moved_percentile_names_p95_us():
    pinned = load_goldens()["serving_percentiles"]["value"]
    moved = dict(pinned, p95_us=pinned["p95_us"] + 1.0)
    with pytest.raises(AssertionError, match=r"differs at p95_us: ledger .*, produced"):
        check_golden("serving_percentiles", pinned, moved)


def test_a_nested_difference_names_its_path_and_type():
    pinned = load_goldens()["engine_counters"]["value"]
    moved = copy.deepcopy(pinned)
    case = next(iter(moved))
    moved[case]["counters"][1] = float(moved[case]["counters"][1])  # 1724 → 1724.0
    expected = f"{case} > counters > 1: ledger 1724, produced 1724.0"
    with pytest.raises(AssertionError, match=re.escape(expected)):
        check_golden("engine_counters", pinned, moved)
    check_golden("engine_counters", pinned, copy.deepcopy(pinned))


def test_a_moved_smoke_number_names_its_full_path():
    pinned = load_goldens()["smoke_cluster_failures"]["value"]
    moved = copy.deepcopy(pinned)
    row = [row["label"] for row in moved["scenarios"]].index("crash R=2")
    moved["scenarios"][row]["counters"]["availability"] = 0.99
    expected = f"scenarios > {row} > counters > availability: ledger 1.0, produced 0.99"
    with pytest.raises(AssertionError, match=re.escape(expected)):
        check_golden("smoke_cluster_failures", pinned, moved)


def test_the_ledger_is_in_its_regenerator_format():
    # A hand edit that re-formats the file would make the regenerator's
    # byte-for-byte rewrite a spurious diff.
    assert GOLDENS_PATH.read_text() == dump_goldens(load_goldens())


def test_every_entry_is_checked_by_a_test():
    sources = "".join(
        path.read_text() for path in Path(__file__).parent.glob("test_*.py")
    )
    for name, entry in load_goldens().items():
        assert f'golden("{name}")' in sources, name
        assert entry["producer"].startswith("tests.test_"), name


def test_changelog_check_names_each_unmentioned_change():
    old = {"a_pin": {"value": 1}, "b_pin": {"value": 2}, "gone": {"value": 3}}
    new = {"a_pin": {"value": 1}, "b_pin": {"value": 5}, "added": {"value": np.int64(4)}}
    assert unnamed_changes(old, new, []) == ["b_pin", "gone", "added"]
    added = ["- Re-pinned `b_pin` and `added`; `gone` went with its test."]
    assert unnamed_changes(old, new, added) == []
    # A name inside a longer word does not count.
    assert unnamed_changes(old, new, ["b_pin_x, gone, added"]) == ["b_pin"]
