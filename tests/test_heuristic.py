import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_instance
from lotforge import heuristic
from lotforge.heuristic import HeuristicConfig, _chunk, randomize_setup_costs, run
from lotforge.instance import Instance, InstanceSpec, generate
from lotforge.lotsizing_dp import solve_uls
from lotforge.oracle import OracleConfig, solve_exact
from lotforge.solution import Solution, check_feasible, evaluate_cost


def test_config_validation():
    with pytest.raises(ValueError):
        HeuristicConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        HeuristicConfig(iterations=0)
    with pytest.raises(ValueError):
        HeuristicConfig(alpha=float("nan"))


def test_randomize_alpha_zero_is_identity():
    rng = np.random.default_rng(0)
    ins = tiny_instance(rng)
    out = randomize_setup_costs(ins, 0.0, np.random.default_rng(1))
    assert np.array_equal(out, ins.setup_cost)


def test_randomize_range_and_plant_untouched():
    rng = np.random.default_rng(1)
    ins = tiny_instance(rng)
    out = randomize_setup_costs(ins, 0.2, np.random.default_rng(2))
    assert np.array_equal(out[0], ins.setup_cost[0])
    rest, orig = out[1:], ins.setup_cost[1:]
    assert np.all(rest >= orig - 1e-12)
    assert np.all(rest <= orig * 1.2 + 1e-9)


def test_randomize_deterministic_per_seed():
    rng = np.random.default_rng(2)
    ins = tiny_instance(rng)
    a = randomize_setup_costs(ins, 0.2, np.random.default_rng(5))
    b = randomize_setup_costs(ins, 0.2, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_alpha_zero_matches_manual_bottom_up_composition():
    rng = np.random.default_rng(3)
    ins = tiny_instance(rng)
    result = run(ins, HeuristicConfig(alpha=0.0, iterations=1, seed=0))

    x = np.zeros((ins.num_facilities, ins.num_periods))
    for r in range(ins.num_retailers):
        fac = ins.retailer(r)
        plan = solve_uls(ins.demand[r], ins.setup_cost[fac], ins.holding_cost[fac])
        x[fac] = plan.produce
    for w in range(ins.num_warehouses):
        fac = ins.warehouse(w)
        dem = sum(x[ins.retailer(r)] for r in ins.retailers_of(w))
        plan = solve_uls(dem, ins.setup_cost[fac], ins.holding_cost[fac])
        x[fac] = plan.produce
    pdem = x[1:1 + ins.num_warehouses].sum(axis=0)
    plan = solve_uls(pdem, ins.setup_cost[0], ins.holding_cost[0])
    x[0] = plan.produce

    assert np.array_equal(result.best.x, x)
    assert result.best_cost == pytest.approx(evaluate_cost(ins, result.best))


def test_alpha_zero_iterations_identical():
    rng = np.random.default_rng(4)
    ins = tiny_instance(rng)
    result = run(ins, HeuristicConfig(alpha=0.0, iterations=5, seed=3))
    assert len(set(result.per_iteration_costs)) == 1


def test_every_iterate_feasible_and_costed_with_original_costs():
    rng = np.random.default_rng(5)
    for _ in range(5):
        ins = tiny_instance(rng)
        for it in range(1, 21):
            sol = _chunk(ins, 0.2, 11, it, 1)[0]
            assert check_feasible(ins, sol) == []
            assert sol.cost == pytest.approx(evaluate_cost(ins, sol))


def test_serial_parallel_and_rerun_identical():
    rng = np.random.default_rng(6)
    ins = tiny_instance(rng)
    config = HeuristicConfig(iterations=40, seed=9)
    first = run(ins, config)
    again = run(ins, config)
    # Iteration i depends only on (seed, i): evaluated in reverse order,
    # the iterations give the same costs.
    reverse = {it: _chunk(ins, config.alpha, config.seed, it, 1)[0].cost
               for it in range(config.iterations, 0, -1)}
    assert first.per_iteration_costs == again.per_iteration_costs
    assert first.per_iteration_costs == [reverse[it] for it in range(1, 41)]
    assert first.best_cost == again.best_cost
    assert np.array_equal(first.best.x, again.best.x)
    assert np.array_equal(first.best.y, again.best.y)


@st.composite
def tiny_instances(draw):
    W = draw(st.integers(1, 2))
    R = draw(st.integers(W, 3))
    T = draw(st.integers(1, 4))
    F = 1 + W + R
    extra = draw(st.lists(st.integers(0, W - 1), min_size=R - W, max_size=R - W))
    rows = lambda n, cell: st.lists(st.lists(cell, min_size=T, max_size=T),
                                    min_size=n, max_size=n)
    return Instance(num_periods=T, num_warehouses=W, num_retailers=R,
                    retailer_warehouse=list(range(W)) + extra,
                    demand=draw(rows(R, st.integers(0, 30))),
                    setup_cost=draw(rows(F, st.floats(0, 400))),
                    holding_cost=draw(rows(F, st.floats(0, 3))))


@settings(max_examples=40, deadline=None)
@given(tiny_instances(), st.floats(0, 1), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_best_solution_feasible_with_nonnegative_stock(ins, alpha, iterations, seed):
    best = run(ins, HeuristicConfig(alpha=alpha, iterations=iterations, seed=seed)).best
    assert check_feasible(ins, best) == []
    assert (best.s >= 0).all()


def _same_solution(a, b):
    return (a.cost == b.cost and a.x.tobytes() == b.x.tobytes()
            and a.y.tobytes() == b.y.tobytes() and a.s.tobytes() == b.s.tobytes())


def _check_chunk_size_independence(ins, config):
    # Budgets for one iteration per chunk, chunks of three (an uneven last
    # chunk unless iterations % 3 == 0), and all iterations in one chunk.
    FT = ins.num_facilities * ins.num_periods
    results = []
    for budget in (1, 3 * FT, config.iterations * FT):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heuristic, "_CHUNK_ELEMENTS", budget)
            results.append(run(ins, config))
    for other in results[1:]:
        assert other.per_iteration_costs == results[0].per_iteration_costs
        assert other.best_cost == results[0].best_cost
        assert _same_solution(other.best, results[0].best)
    # Every solution of a chunk is the one its iteration gives alone.
    first = 2 if config.iterations > 2 else 1
    for c, sol in enumerate(_chunk(ins, config.alpha, config.seed, first,
                                   config.iterations - first + 1)):
        assert _same_solution(sol, _chunk(ins, config.alpha, config.seed, first + c, 1)[0])


@settings(max_examples=40, deadline=None)
@given(tiny_instances(), st.floats(0, 1), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_results_do_not_depend_on_chunk_size(ins, alpha, iterations, seed):
    _check_chunk_size_independence(
        ins, HeuristicConfig(alpha=alpha, iterations=iterations, seed=seed))


def test_results_do_not_depend_on_chunk_size_at_benchmark_scale():
    _check_chunk_size_independence(generate(InstanceSpec(200, 20, 30, seed=0)),
                                   HeuristicConfig(iterations=20, seed=0))


def test_cost_ties_go_to_the_lowest_iteration(monkeypatch):
    # Iterations 2 and 3 tie at the lowest cost with different plans; the
    # best is iteration 2's, whether the tie is inside a chunk or across two.
    ins = tiny_instance(np.random.default_rng(10))
    shape = (ins.num_facilities, ins.num_periods)
    costs = {1: 5.0, 2: 1.0, 3: 1.0, 4: 2.0}

    def fake_chunk(instance, alpha, seed, first, count):
        return [Solution(x=np.full(shape, float(i)), y=np.zeros(shape),
                         s=np.zeros(shape), cost=costs[i]) for i in range(first, first + count)]

    monkeypatch.setattr(heuristic, "_chunk", fake_chunk)
    for chunk in (1, 2, 4):
        monkeypatch.setattr(heuristic, "_CHUNK_ELEMENTS", chunk * shape[0] * shape[1])
        result = run(ins, HeuristicConfig(iterations=4))
        assert result.per_iteration_costs == [5.0, 1.0, 1.0, 2.0]
        assert result.best_cost == 1.0 and (result.best.x == 2.0).all()


def test_best_cost_prefix_monotone():
    rng = np.random.default_rng(7)
    ins = tiny_instance(rng)
    full = run(ins, HeuristicConfig(iterations=30, seed=2))
    prev = float("inf")
    for n in (5, 10, 20, 30):
        partial = run(ins, HeuristicConfig(iterations=n, seed=2))
        assert partial.per_iteration_costs == full.per_iteration_costs[:n]
        assert partial.best_cost <= prev + 1e-12
        prev = partial.best_cost


def test_best_cost_bounds():
    rng = np.random.default_rng(8)
    for _ in range(10):
        ins = tiny_instance(rng)
        result = run(ins, HeuristicConfig(iterations=60, seed=1))
        assert result.best_cost == min(result.per_iteration_costs)
        optimum, _, _ = solve_exact(ins, OracleConfig(max_setup_bits=24))
        assert result.best_cost >= optimum - 1e-9


def test_invalid_instance_rejected():
    rng = np.random.default_rng(9)
    ins = tiny_instance(rng)
    import dataclasses
    bad = dataclasses.replace(ins, retailer_warehouse=np.full(
        ins.num_retailers, ins.num_warehouses + 3))
    with pytest.raises(ValueError):
        run(bad, HeuristicConfig(iterations=1))


def test_per_iteration_costs_golden():
    # Captured from the per-facility DP implementation; any drift in the
    # batched DP, the stock assembly or the random stream shows up here.
    result = run(generate(InstanceSpec(30, 3, 8, seed=0)),
                 HeuristicConfig(iterations=10, seed=0))
    assert result.per_iteration_costs == [
        80320.9195624059, 80492.61010092564, 80333.63775565318,
        80317.18832051179, 80319.03710524793, 80238.93881652255,
        80902.22068630371, 80684.12825508384, 80197.14606130362,
        80392.78133478615]
