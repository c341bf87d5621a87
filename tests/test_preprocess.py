import numpy as np
import pytest

from conftest import tiny_instance
from lotforge.formulations import build_mc
from lotforge.instance import Instance
from lotforge.oracle import OracleConfig, solve_exact
from lotforge.preprocess import (RemovalSet, apply_removals, compute_removals,
                                 removal_report_csv)


def test_retailer_storage_dominated_everywhere():
    # Retailer holding 1.0 vs warehouse 0.5 and zero retailer setup: every
    # (k, t) pair with k < t satisfies the condition.
    ins = Instance(num_periods=3, num_warehouses=1, num_retailers=1,
                   retailer_warehouse=[0], demand=[[10, 10, 10]],
                   setup_cost=[[5.0] * 3, [2.0] * 3, [0.0] * 3],
                   holding_cost=[[0.25] * 3, [0.5] * 3, [1.0] * 3])
    removals = compute_removals(ins)
    expected = {(0, k, t) for k in range(3) for t in range(k + 1, 3)}
    assert removals.triples == expected
    assert removals.num_candidates == 1 * 3 * 2 // 2
    assert removals.reduction_percent == 100.0


def test_cheap_retailer_storage_removes_nothing():
    ins = Instance(num_periods=4, num_warehouses=1, num_retailers=1,
                   retailer_warehouse=[0], demand=[[10, 10, 10, 10]],
                   setup_cost=[[5.0] * 4, [2.0] * 4, [3.0] * 4],
                   holding_cost=[[0.25] * 4, [2.0] * 4, [0.5] * 4])
    removals = compute_removals(ins)
    assert removals.triples == frozenset()
    assert removals.reduction_percent == 0.0


def test_upward_closure():
    rng = np.random.default_rng(0)
    for _ in range(30):
        ins = tiny_instance(rng)
        removals = compute_removals(ins)
        T = ins.num_periods
        for (r, k, t) in removals.triples:
            assert k < t
            for tp in range(t + 1, T):
                assert (r, k, tp) in removals.triples
        assert removals.num_candidates == ins.num_retailers * T * (T - 1) // 2
        assert 0.0 <= removals.reduction_percent <= 100.0


def test_independent_recount_of_condition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ins = tiny_instance(rng)
        T = ins.num_periods
        expected = set()
        for r in range(ins.num_retailers):
            rfac = ins.retailer(r)
            wfac = ins.warehouse(int(ins.retailer_warehouse[r]))
            for k in range(T):
                for t in range(k + 1, T):
                    d = float(ins.demand[r, t])
                    lhs = d * ins.holding_cost[rfac, k:t].sum()
                    rhs = d * ins.holding_cost[wfac, k:t].sum() \
                        + float(ins.setup_cost[rfac, t])
                    if lhs >= rhs:
                        expected.update((r, k, tp) for tp in range(t, T))
                        break
        removals = compute_removals(ins)
        assert removals.triples == frozenset(expected)
        assert removals.num_removed == len(expected)


def test_optimality_preserved_under_removals():
    rng = np.random.default_rng(2)
    for _ in range(40):
        ins = tiny_instance(rng)
        removals = compute_removals(ins)
        base, _, _ = solve_exact(ins, OracleConfig(max_setup_bits=24))
        restricted, _, _ = solve_exact(
            ins, OracleConfig(max_setup_bits=24, forbidden=removals.triples))
        assert restricted == base


def test_apply_removals_zeroes_bounds():
    rng = np.random.default_rng(3)
    ins = tiny_instance(rng)
    model = build_mc(ins)
    removals = compute_removals(ins)
    reduced = apply_removals(model, removals)
    assert len(reduced.variables) == len(model.variables)
    by_var = reduced.bounds()
    orig = model.bounds()
    from lotforge.formulations import VarId
    for (r, k, t) in removals.triples:
        var = VarId("w", 2, r, k, t)
        if var in orig:
            assert by_var[var].ub == 0.0
    untouched = [d for d in reduced.variables
                 if not (d.var.family == "w" and d.var.b == 2 and
                         (d.var.idx, d.var.k, d.var.t) in removals.triples)]
    for d in untouched:
        assert d == orig[d.var]


def test_apply_removals_empty_set_is_identity():
    rng = np.random.default_rng(4)
    ins = tiny_instance(rng)
    model = build_mc(ins)
    R, T = ins.num_retailers, ins.num_periods
    empty = RemovalSet(np.full((R, T), T))
    reduced = apply_removals(model, empty)
    assert reduced.variables == model.variables
    assert reduced.constraints == model.constraints


def test_apply_removals_requires_mc():
    rng = np.random.default_rng(5)
    ins = tiny_instance(rng)
    from lotforge.formulations import build_std
    with pytest.raises(ValueError):
        apply_removals(build_std(ins), compute_removals(ins))


def test_report_csv():
    ins = Instance(num_periods=3, num_warehouses=1, num_retailers=1,
                   retailer_warehouse=[0], demand=[[10, 10, 10]],
                   setup_cost=[[5.0] * 3, [2.0] * 3, [0.0] * 3],
                   holding_cost=[[0.25] * 3, [0.5] * 3, [1.0] * 3])
    removals = compute_removals(ins)
    lines = removal_report_csv(removals).splitlines()
    assert lines[0] == "retailer,k,t_min"
    assert "0,1,2" in lines  # first removal from period 1 targets period 2
    assert lines[-2] == "np,pot,red"
    np_, pot, red = lines[-1].split(",")
    assert int(np_) == removals.num_removed
    assert int(pot) == removals.num_candidates
    assert float(red) == removals.reduction_percent
