import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEXT_EDITS, apply_edits
from lotforge import instance as inst
from lotforge.instance import (DemandType, FixedCostType, Instance,
                               InstanceSpec, NetworkShape, ParseError,
                               cumulative_demand, facility_label, generate,
                               read_instance, validate, write_instance)


def spec(R, W, T, d="D", f="D", shape="balanced", seed=0):
    return InstanceSpec(num_retailers=R, num_warehouses=W, num_periods=T,
                        demand_type=DemandType(d), fixed_cost_type=FixedCostType(f),
                        network_shape=NetworkShape(shape), seed=seed)


def test_group_name():
    assert spec(50, 5, 15).group_name() == "50_15_5_DD_DF"
    assert spec(100, 10, 30, d="S", f="S").group_name() == "100_30_10_SD_SF"


def test_flat_indexing_roundtrip():
    ins = generate(spec(4, 2, 3))
    assert ins.level[0] == 0
    for w in range(2):
        fac = ins.warehouse(w)
        assert ins.level[fac] == 1
        assert ins.ordinal[fac] == w
    for r in range(4):
        fac = ins.retailer(r)
        assert ins.level[fac] == 2
        assert ins.ordinal[fac] == r
    assert facility_label(ins.level[0], ins.ordinal[0]) == "p"
    fac = ins.warehouse(1)
    assert facility_label(ins.level[fac], ins.ordinal[fac]) == "w1"
    fac = ins.retailer(3)
    assert facility_label(ins.level[fac], ins.ordinal[fac]) == "r3"


def test_children_and_descendants():
    ins = generate(spec(4, 2, 3))
    assert ins.parent[0] == -1
    assert [f for f in range(ins.num_facilities) if ins.parent[f] == 0] \
        == [ins.warehouse(0), ins.warehouse(1)]
    for w in range(2):
        kids = [f for f in range(ins.num_facilities) if ins.parent[f] == ins.warehouse(w)]
        assert kids == [ins.retailer(r) for r in ins.retailers_of(w)]
    assert sorted(r for w in range(2) for r in ins.retailers_of(w)) == [0, 1, 2, 3]
    for r in range(4):
        assert ins.retailer(r) not in ins.parent


@given(R=st.integers(1, 25), W=st.integers(1, 6), T=st.integers(1, 5),
       shape=st.sampled_from(["balanced", "unbalanced"]),
       seed=st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_network_arrays_match_naive_scan(R, W, T, shape, seed):
    W = min(W, R)
    ins = generate(spec(R, W, T, shape=shape, seed=seed))
    rw = ins.retailer_warehouse.tolist()
    assert ins.level.tolist() == [0] + [1] * W + [2] * R
    assert ins.ordinal.tolist() == [0] + list(range(W)) + list(range(R))
    assert ins.parent.tolist() == [-1] + [0] * W + [1 + w for w in rw]
    for w in range(W):
        assert ins.retailers_of(w) == [r for r in range(R) if rw[r] == w]
    for arr in (ins.level, ins.ordinal, ins.parent):
        assert arr.shape == (1 + W + R,) and not arr.flags.writeable
    assert ins.path.tolist() == [[0, 1 + rw[r], 1 + W + r] for r in range(R)]
    assert not ins.path.flags.writeable
    # Sequential sums in ascending retailer order, bit for bit.
    expected = np.zeros((1 + W + R, T))
    for t in range(T):
        expected[0, t] = sum(int(ins.demand[r, t]) for r in range(R))
        for w in range(W):
            total = 0.0
            for r in range(R):
                if rw[r] == w:
                    total += float(ins.demand[r, t])
            expected[1 + w, t] = total
        for r in range(R):
            expected[1 + W + r, t] = float(ins.demand[r, t])
    assert ins.facility_demand().tobytes() == expected.tobytes()


def test_cumulative_demand_table():
    ins = generate(spec(3, 1, 4, seed=5))
    cum = cumulative_demand(ins)
    assert not cum.flags.writeable
    fdem = ins.facility_demand()
    for fac in range(ins.num_facilities):
        for k in range(4):
            for t in range(4):
                if k > t:
                    assert cum[fac, k, t] == 0.0
                else:
                    assert cum[fac, k, t] == pytest.approx(
                        fdem[fac, k:t + 1].sum())
            assert cum[fac, k, -1] == pytest.approx(fdem[fac, k:].sum())


def test_facility_demand_aggregation():
    ins = generate(spec(5, 2, 3, seed=9))
    fdem = ins.facility_demand()
    assert np.array_equal(fdem[0], ins.demand.sum(axis=0))
    for w in range(2):
        expected = sum(ins.demand[r] for r in ins.retailers_of(w))
        assert np.array_equal(fdem[ins.warehouse(w)], expected)


def test_generator_bounds_and_types():
    ins = generate(spec(10, 3, 6, seed=3))
    assert ins.demand.min() >= inst.DEMAND_LO and ins.demand.max() <= inst.DEMAND_HI
    sc = ins.setup_cost
    assert inst.PLANT_SETUP_LO <= sc[0].min() and sc[0].max() <= inst.PLANT_SETUP_HI
    assert inst.WAREHOUSE_SETUP_LO <= sc[1:4].min()
    assert sc[1:4].max() <= inst.WAREHOUSE_SETUP_HI
    assert inst.RETAILER_SETUP_LO <= sc[4:].min() and sc[4:].max() <= inst.RETAILER_SETUP_HI
    hc = ins.holding_cost
    assert np.all(hc[0] == inst.PLANT_HOLDING)
    assert np.all(hc[1:4] == inst.WAREHOUSE_HOLDING)
    assert np.all((hc[4:] >= inst.RETAILER_HOLDING_LO) & (hc[4:] <= inst.RETAILER_HOLDING_HI))
    assert not validate(ins)


def test_static_types_replicate_single_draws():
    ins = generate(spec(6, 2, 5, d="S", f="S", seed=11))
    for r in range(6):
        assert len(set(ins.demand[r])) == 1
    for i in range(ins.num_facilities):
        assert len(set(ins.setup_cost[i])) == 1
    dyn = generate(spec(6, 2, 5, seed=11))
    assert any(len(set(dyn.demand[r])) > 1 for r in range(6))


def test_balanced_assignment_counts():
    ins = generate(spec(50, 5, 3, seed=1))
    counts = np.bincount(ins.retailer_warehouse, minlength=5)
    assert list(counts) == [10] * 5


def test_unbalanced_assignment_concentrates():
    ins = generate(spec(100, 10, 3, shape="unbalanced", seed=1))
    counts = np.bincount(ins.retailer_warehouse, minlength=10)
    hubs = math.ceil(0.2 * 10)
    assert counts[:hubs].sum() == math.floor(0.8 * 100)
    assert counts.sum() == 100


def test_unbalanced_counts_follow_split_rule():
    for R, W in [(7, 3), (50, 5), (23, 4), (9, 2)]:
        ins = generate(spec(R, W, 2, shape="unbalanced", seed=2))
        counts = np.bincount(ins.retailer_warehouse, minlength=W)
        hubs = math.ceil(0.2 * W)
        hub_load = math.floor(0.8 * R)
        base, rem = divmod(hub_load, hubs)
        assert counts[0] == base + rem
        assert all(counts[h] == base for h in range(1, hubs))
        assert counts.sum() == R


def test_generate_rejects_more_warehouses_than_retailers():
    with pytest.raises(ValueError):
        generate(spec(2, 3, 4))


def test_determinism_same_seed():
    a = write_instance(generate(spec(8, 2, 5, seed=42)))
    b = write_instance(generate(spec(8, 2, 5, seed=42)))
    assert a == b
    c = write_instance(generate(spec(8, 2, 5, seed=43)))
    assert a != c


@settings(max_examples=25, deadline=None)
@given(R=st.integers(1, 8), W=st.integers(1, 4), T=st.integers(1, 6),
       seed=st.integers(0, 10 ** 6))
def test_file_roundtrip(R, W, T, seed):
    if W > R:
        W = R
    ins = generate(spec(R, W, T, seed=seed))
    back = read_instance(write_instance(ins))
    assert np.array_equal(ins.retailer_warehouse, back.retailer_warehouse)
    assert np.array_equal(ins.demand, back.demand)
    assert np.array_equal(ins.setup_cost, back.setup_cost)
    assert np.array_equal(ins.holding_cost, back.holding_cost)


def test_parse_error_missing_hold_section():
    text = write_instance(generate(spec(2, 1, 2)))
    truncated = text[:text.index("HOLD")]
    with pytest.raises(ParseError) as err:
        read_instance(truncated)
    assert "HOLD" in str(err.value)


def test_parse_error_row_length_mismatch():
    text = write_instance(generate(spec(2, 1, 3)))
    lines = text.splitlines()
    demand_row = lines.index("DEMAND") + 1
    lines[demand_row] = "1 2"
    with pytest.raises(ParseError) as err:
        read_instance("\n".join(lines))
    assert "DEMAND" in str(err.value)
    assert err.value.line_no == demand_row + 1


def test_parse_skips_comments_and_blanks():
    text = write_instance(generate(spec(2, 1, 2, seed=4)))
    noisy = "# header comment\n" + text.replace("ASSIGN", "ASSIGN  # retailers\n")
    back = read_instance(noisy)
    assert back.num_retailers == 2


def test_read_instance_rejects_invalid_content():
    lines = write_instance(generate(spec(2, 1, 2))).splitlines()
    with pytest.raises(ParseError) as err:
        read_instance("\n".join(lines).replace("R 2", "R -1"))
    assert err.value.line_no == 4
    lines[lines.index("DEMAND") + 1] = "-3 7"
    with pytest.raises(ParseError) as err:
        read_instance("\n".join(lines))
    assert err.value.line_no is None
    assert "negative demand at retailer 0, period 1" in str(err.value)
    lines[lines.index("DEMAND") + 1] = "9" * 25 + " 7"
    with pytest.raises(ParseError) as err:
        read_instance("\n".join(lines))
    assert err.value.line_no is None


@settings(max_examples=200, deadline=None)
@given(TEXT_EDITS)
def test_read_instance_mutated_text_raises_only_parse_error(edits):
    text = apply_edits(write_instance(generate(spec(3, 2, 3))), edits)
    try:
        ins = read_instance(text)
    except ParseError:
        return
    assert validate(ins) == []


def test_validate_reports_problems():
    ins = generate(spec(2, 1, 2))
    bad = Instance(num_periods=2, num_warehouses=1, num_retailers=2,
                   retailer_warehouse=np.array([0, 5]),
                   demand=ins.demand, setup_cost=ins.setup_cost,
                   holding_cost=ins.holding_cost)
    assert any("warehouse" in msg for msg in validate(bad))


def test_arrays_are_read_only():
    ins = generate(spec(2, 1, 2))
    with pytest.raises(ValueError):
        ins.demand[0, 0] = 7
