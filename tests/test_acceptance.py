"""Acceptance suite.

One test per top-level acceptance criterion, each at its stated sample
size and tolerance. Every test reports a pass/fail line through the
terminal-summary hook in conftest (and prints it, so -s shows the lines
inline as well).
"""

import functools
import itertools
import shlex
import subprocess

import numpy as np
import pytest

import conftest
from conftest import (convex_combination, lf3_point_from_routes,
                      random_routes, tiny_instance)
from lotforge import cuts as cm
from lotforge import formulations as fm
from lotforge.cli import gap_to_best_known, make_command_lp_source
from lotforge.heuristic import HeuristicConfig, _chunk, run
from lotforge.instance import (DemandType, FixedCostType, InstanceSpec,
                               NetworkShape, cumulative_demand, facility_keys,
                               generate, write_instance)
from lotforge.instance import (DEMAND_HI, DEMAND_LO, PLANT_HOLDING,
                               PLANT_SETUP_HI, PLANT_SETUP_LO,
                               RETAILER_HOLDING_HI, RETAILER_HOLDING_LO,
                               RETAILER_SETUP_HI, RETAILER_SETUP_LO,
                               WAREHOUSE_HOLDING, WAREHOUSE_SETUP_HI,
                               WAREHOUSE_SETUP_LO)
from lotforge.lotsizing_dp import solve_uls
from lotforge.oracle import OracleConfig, solve_exact, solve_exact_routes
from lotforge.preprocess import compute_removals
from lotforge.solution import check_feasible, from_routes


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                conftest.ACCEPTANCE_RESULTS.append((name, "SKIP"))
                print(f"acceptance SKIP {name}")
                raise
            except BaseException:
                conftest.ACCEPTANCE_RESULTS.append((name, "FAIL"))
                print(f"acceptance FAIL {name}")
                raise
            conftest.ACCEPTANCE_RESULTS.append((name, "PASS"))
            print(f"acceptance PASS {name}")
        return wrapper
    return deco


# ----------------------------------------------------------------------
# DP exactness: 500 random single-facility instances, T <= 12, against
# exhaustive enumeration of all 2^T setup subsets, 1e-9 relative.

_BITS_CACHE = {}


def _bits(T):
    if T not in _BITS_CACHE:
        _BITS_CACHE[T] = ((np.arange(1 << T)[:, None] >> np.arange(T)) & 1
                          ).astype(bool)
    return _BITS_CACHE[T]


def brute_force_uls(d, sc, hc):
    """Minimum cost over every setup subset, vectorized over subsets.

    With nonnegative holding costs, each demand is optimally served from
    the latest open setup at or before its period."""
    T = len(d)
    bits = _bits(T)
    Hcum = np.concatenate(([0.0], np.cumsum(hc[:-1])))
    serve = np.maximum.accumulate(np.where(bits, np.arange(T), -1), axis=1)
    dem = d > 0
    feasible = np.all(serve[:, dem] >= 0, axis=1)
    Hserve = Hcum[np.clip(serve[:, dem], 0, None)]
    hold = (d * Hcum)[dem].sum() - Hserve @ d[dem]
    total = bits @ sc + hold
    total[~feasible] = np.inf
    return float(total.min())


@criterion("dp-exactness (500 instances, T<=12, 1e-9 relative)")
def test_dp_exactness():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        T = int(rng.integers(1, 13))
        d = rng.integers(0, 101, size=T).astype(float)
        sc = rng.integers(0, 1001, size=T).astype(float)
        hc = rng.uniform(0.0, 1000.0, size=T)
        plan = solve_uls(d, sc, hc)
        expected = brute_force_uls(d, sc, hc)
        assert abs(plan.cost - expected) <= 1e-9 * max(1.0, abs(expected))


# ----------------------------------------------------------------------
# Oracle self-consistency: setup-pattern enumeration equals direct route
# enumeration on 100 tiny instances, exactly.

@criterion("oracle-self-consistency (100 tiny instances, exact)")
def test_oracle_self_consistency():
    rng = np.random.default_rng(7)
    cfg = OracleConfig(max_setup_bits=24)
    for _ in range(100):
        ins = tiny_instance(rng)
        pattern_cost, sol, _ = solve_exact(ins, cfg)
        assert pattern_cost == solve_exact_routes(ins, cfg)
        assert check_feasible(ins, sol, tol=1e-9) == []


# ----------------------------------------------------------------------
# Heuristic soundness: every iterate feasible, best above the optimum,
# mean gap to the optimum at most 15% with alpha=0.20, 500 iterations.

def _tiny_benchmark_instance(rng):
    W = int(rng.integers(1, 3))
    R = int(rng.integers(W, 4))
    T = int(rng.integers(2, 5))
    spec = InstanceSpec(num_retailers=R, num_warehouses=W, num_periods=T,
                        demand_type=DemandType.DYNAMIC,
                        fixed_cost_type=FixedCostType.DYNAMIC,
                        network_shape=NetworkShape.BALANCED,
                        seed=int(rng.integers(0, 2 ** 31)))
    return generate(spec)


@criterion("heuristic-soundness (50 tiny instances, mean gap_bstar <= 15%)")
def test_heuristic_soundness():
    rng = np.random.default_rng(12)
    gaps = []
    for _ in range(50):
        ins = _tiny_benchmark_instance(rng)
        costs = []
        for sol in _chunk(ins, 0.20, 5, 1, 500):
            assert check_feasible(ins, sol, tol=1e-6) == []
            costs.append(sol.cost)
        best = min(costs)
        result = run(ins, HeuristicConfig(alpha=0.20, iterations=500, seed=5))
        assert result.best_cost == best
        optimum, _, _ = solve_exact(ins, OracleConfig(max_setup_bits=24))
        assert best >= optimum - 1e-9
        gaps.append(gap_to_best_known(best, optimum))
    assert np.mean(gaps) <= 15.0


# ----------------------------------------------------------------------
# Inequality validity: all six families over all structural parameters,
# 1000 random feasible integer solutions, slack >= -1e-6. An empty
# separator result at tol=1e-6 certifies every member of the family for
# that point, because separation returns the minimum-slack member
# (exactness is the next criterion).

@criterion("inequality-validity (6 families, 1000 integer solutions)")
def test_inequality_validity():
    rng = np.random.default_rng(31)
    tol = 1e-6
    solutions = 0
    while solutions < 1000:
        ins = tiny_instance(rng)
        for _ in range(50):
            routes = random_routes(ins, rng)
            sol = from_routes(ins, routes)
            std_point = fm.std_point_from_solution(ins, sol.x, sol.y, sol.s)
            assert cm.separate(ins, "SL_STD", std_point, tol) == []
            assert cm.separate(ins, "TL_STD", std_point, tol) == []
            assert cm.separate(ins, "THL_STD", std_point, tol) == []
            lf_point = lf3_point_from_routes(ins, routes)
            assert cm.separate(ins, "SL_3LF", lf_point, tol) == []
            assert cm.separate(ins, "TL_3LF", lf_point, tol) == []
            assert cm.separate(ins, "THL_3LF", lf_point, tol) == []
            solutions += 1
            if solutions == 1000:
                break


# ----------------------------------------------------------------------
# Separation exactness: the inspection rule equals brute force over all
# S-subset combinations (l <= 6), tie-consistent, across all families.

def _masks(lo, hi):
    out = []
    for combo in itertools.product((0, 1), repeat=hi - lo + 1):
        m = 0
        for offset, chosen in enumerate(combo):
            if chosen:
                m |= 1 << (lo + offset)
        out.append(m)
    return out


def _built(ins, family, members):
    """{mask combo: cut} for (combo, params) members, built by one
    make_cuts call."""
    combos, params = zip(*members)
    return dict(zip(combos, cm.make_cuts(ins, family, list(params))))


def _assert_brute_match(point, built, inspect_total, inspect_masks):
    values = {c: cm.eval_inequality(cut, point) for c, cut in built.items()}
    best = min(values.values())
    rhs = next(iter(built.values())).rhs
    assert abs(inspect_total - (best + rhs)) <= 1e-9 * max(1.0, abs(rhs))
    argmin = [c for c, v in values.items() if v <= best + 1e-9]
    union = tuple(int(np.bitwise_or.reduce([c[i] for c in argmin]))
                  for i in range(len(inspect_masks)))
    assert values[union] <= best + 1e-9
    assert tuple(inspect_masks) == union


def _wide_instance():
    rng = np.random.default_rng(5)
    from lotforge.instance import Instance
    T = 7
    demand = rng.integers(0, 25, size=(2, T))
    demand[0, 3] = 0
    return Instance(num_periods=T, num_warehouses=1, num_retailers=2,
                    retailer_warehouse=[0, 0], demand=demand,
                    setup_cost=rng.integers(1, 200, size=(4, T)).astype(float),
                    holding_cost=rng.integers(0, 8, size=(4, T)) * 0.25)


def _frac_std(ins, rng):
    cum = cumulative_demand(ins)
    point = {}
    for fac in range(ins.num_facilities):
        b, idx = int(ins.level[fac]), int(ins.ordinal[fac])
        for k in range(ins.num_periods):
            point[fm.VarId("y", b, idx, k)] = float(rng.random())
            point[fm.VarId("x", b, idx, k)] = float(rng.random() * cum.tail(fac, k))
    return point


def _frac_3lf(ins, rng):
    cum = cumulative_demand(ins)
    point = {}
    for fac in range(ins.num_facilities):
        b, idx = int(ins.level[fac]), int(ins.ordinal[fac])
        for k in range(ins.num_periods):
            point[fm.VarId("y", b, idx, k)] = float(rng.random())
    for r in range(ins.num_retailers):
        rfac = ins.retailer(r)
        for b in range(3):
            for k in range(ins.num_periods):
                point[fm.VarId("x3", b, r, k)] = float(
                    rng.random() * cum.tail(rfac, k))
    return point


@criterion("separation-exactness (brute force over S subsets, l<=6)")
def test_separation_exactness():
    ins = _wide_instance()
    cum = cumulative_demand(ins)
    rng = np.random.default_rng(77)
    T = ins.num_periods
    W, R = ins.num_warehouses, ins.num_retailers
    for _ in range(2):
        point = _frac_std(ins, rng)
        slots = cm._Slots(cm._std_chains(ins, cum), point)
        for fac, key in enumerate(facility_keys(ins)):
            for l in range(T):
                built = _built(ins, "SL_STD", [((m,), key + (l, m)) for m in _masks(0, l)])
                total, mask = slots.segment(l, fac, 0, l)
                _assert_brute_match(point, built, total, (mask,))
        for fac, succ in cm._two_level_pairs(ins):
            key = facility_keys(ins)[fac] + (int(ins.level[succ[0]]),)
            for l in range(1, T):
                for li in range(l):
                    built = _built(ins, "TL_STD", [
                        ((um,) + sm, key + (l, li, um, sm)) for um in _masks(0, li)
                        for sm in itertools.product(*([_masks(li + 1, l)] * len(succ)))])
                    total, um = slots.segment(l, fac, 0, li)
                    chosen = [um]
                    for j in succ:
                        val, m = slots.segment(l, j, li + 1, l)
                        total += val
                        chosen.append(m)
                    _assert_brute_match(point, built, total, chosen)
        for l in range(2, T):
            for lp in range(l - 1):
                for lw in range(lp + 1, l):
                    spaces = ([_masks(0, lp)] + [_masks(lp + 1, lw)] * W
                              + [_masks(lw + 1, l)] * R)
                    built = _built(ins, "THL_STD", [
                        (combo, (l, lp, lw, combo[0], combo[1:1 + W], combo[1 + W:]))
                        for combo in itertools.product(*spaces)])
                    total, pm = slots.segment(l, 0, 0, lp)
                    chosen = [pm]
                    for w in range(W):
                        val, m = slots.segment(l, ins.warehouse(w), lp + 1, lw)
                        total += val
                        chosen.append(m)
                    for r in range(R):
                        val, m = slots.segment(l, ins.retailer(r), lw + 1, l)
                        total += val
                        chosen.append(m)
                    _assert_brute_match(point, built, total, chosen)

        point3 = _frac_3lf(ins, rng)
        slots3 = cm._Slots(cm._lf3_chains(ins, cum), point3)
        for r in range(R):
            for b in range(3):
                for l in range(T):
                    built = _built(ins, "SL_3LF",
                                   [((m,), (r, b, l, m)) for m in _masks(0, l)])
                    total, mask = slots3.segment(l, 3 * r + b, 0, l)
                    _assert_brute_match(point3, built, total, (mask,))
            for b in range(3):
                for b2 in range(b + 1, 3):
                    for l in range(1, T):
                        for lb in range(l):
                            built = _built(ins, "TL_3LF", [
                                ((m1, m2), (r, b, b2, l, lb, m1, m2))
                                for m1 in _masks(0, lb) for m2 in _masks(lb + 1, l)])
                            t1, m1 = slots3.segment(l, 3 * r + b, 0, lb)
                            t2, m2 = slots3.segment(l, 3 * r + b2, lb + 1, l)
                            _assert_brute_match(point3, built, t1 + t2, (m1, m2))
            for l in range(2, T):
                for l0 in range(l - 1):
                    for l1 in range(l0 + 1, l):
                        built = _built(ins, "THL_3LF", [
                            ((m0, m1, m2), (r, l, l0, l1, m0, m1, m2))
                            for m0 in _masks(0, l0) for m1 in _masks(l0 + 1, l1)
                            for m2 in _masks(l1 + 1, l)])
                        t0, m0 = slots3.segment(l, 3 * r, 0, l0)
                        t1, m1 = slots3.segment(l, 3 * r + 1, l0 + 1, l1)
                        t2, m2 = slots3.segment(l, 3 * r + 2, l1 + 1, l)
                        _assert_brute_match(point3, built, t0 + t1 + t2,
                                            (m0, m1, m2))


# ----------------------------------------------------------------------
# Lemma suite: mapping 200 random fractional per-retailer points to the
# aggregated space preserves LP feasibility and the objective, and the
# per-retailer inequalities sum to the aggregated inequality.

def _std_lp_relaxation(ins):
    std = fm.build_std(ins)
    decls = [fm.VarDecl(d.var, 0.0, 1.0 if d.binary else d.ub, False)
             for d in std.variables]
    return fm.MipModel(std.kind, decls, std.objective, std.constraints)


def _served(ins, fac):
    """Retailers whose path (plant, warehouse, retailer) passes through fac."""
    return [r for r in range(ins.num_retailers)
            if fac in (0, ins.parent[ins.retailer(r)], ins.retailer(r))]


def _transfer_cuts(ins, rng):
    """A random aggregated-space cut and the per-retailer cuts whose sum
    must equal it: one draw each of the single-, two- and three-level
    correspondences."""
    T = ins.num_periods
    out = []

    fac = int(rng.integers(0, ins.num_facilities))
    l = int(rng.integers(0, T))
    mask = int(rng.integers(0, 1 << (l + 1)))
    b = int(ins.level[fac])
    key = facility_keys(ins)[fac]
    std_cut, = cm.make_cuts(ins, "SL_STD", [key + (l, mask)])
    parts = cm.make_cuts(ins, "SL_3LF", [(r, b, l, mask) for r in _served(ins, fac)])
    out.append((std_cut, parts))

    pairs = cm._two_level_pairs(ins)
    fac, succ = pairs[int(rng.integers(0, len(pairs)))]
    if len(succ) > 0 and T >= 2:
        l = int(rng.integers(1, T))
        li = int(rng.integers(0, l))
        upper = int(rng.integers(0, 1 << (li + 1)))
        succ_masks = tuple(int(rng.integers(0, 1 << (l + 1)))
                           & ~((1 << (li + 1)) - 1) for _ in succ)
        lower = int(ins.level[succ[0]])
        key = facility_keys(ins)[fac] + (lower,)
        std_cut, = cm.make_cuts(ins, "TL_STD", [key + (l, li, upper, succ_masks)])
        b = int(ins.level[fac])
        params = []
        for r in _served(ins, fac):
            if lower == 1:
                j = int(ins.parent[ins.retailer(r)])
            else:
                j = ins.retailer(r)
            m2 = succ_masks[succ.index(j)]
            params.append((r, b, lower, l, li, upper, m2))
        parts = cm.make_cuts(ins, "TL_3LF", params)
        out.append((std_cut, parts))

    if T >= 3:
        l = int(rng.integers(2, T))
        lp = int(rng.integers(0, l - 1))
        lw = int(rng.integers(lp + 1, l))
        pmask = int(rng.integers(0, 1 << (lp + 1)))
        w_masks = tuple(int(rng.integers(0, 1 << (lw + 1)))
                        & ~((1 << (lp + 1)) - 1)
                        for _ in range(ins.num_warehouses))
        r_masks = tuple(int(rng.integers(0, 1 << (l + 1)))
                        & ~((1 << (lw + 1)) - 1)
                        for _ in range(ins.num_retailers))
        std_cut, = cm.make_cuts(ins, "THL_STD", [(l, lp, lw, pmask, w_masks, r_masks)])
        parts = cm.make_cuts(ins, "THL_3LF", [
            (r, l, lp, lw, pmask, w_masks[int(ins.retailer_warehouse[r])], r_masks[r])
            for r in range(ins.num_retailers)])
        out.append((std_cut, parts))
    return out


@criterion("lemma-suite (200 fractional points, mapping and transfer)")
def test_lemma_suite():
    rng = np.random.default_rng(55)
    transfer_checks = 0
    for _ in range(200):
        ins = tiny_instance(rng)
        npts = int(rng.integers(2, 5))
        pts = [lf3_point_from_routes(ins, random_routes(ins, rng))
               for _ in range(npts)]
        frac = convex_combination(pts, rng.dirichlet(np.ones(npts)))
        mapped = fm.map_3lf_to_std(ins, frac)

        assert fm.evaluate_point(_std_lp_relaxation(ins), mapped, tol=1e-6) == []
        obj3 = fm.objective_value(fm.build_3lf(ins), frac)
        objs = fm.objective_value(fm.build_std(ins), mapped)
        assert abs(objs - obj3) <= 1e-6 * max(1.0, abs(obj3))

        for std_cut, parts in _transfer_cuts(ins, rng):
            rhs_sum = sum(p.rhs for p in parts)
            assert abs(std_cut.rhs - rhs_sum) <= 1e-9 * max(1.0, abs(rhs_sum))
            lhs_std = cm.eval_inequality(std_cut, mapped) + std_cut.rhs
            lhs_parts = sum(cm.eval_inequality(p, frac) + p.rhs for p in parts)
            assert abs(lhs_std - lhs_parts) <= 1e-6 * max(1.0, abs(lhs_parts))
            transfer_checks += 1
    assert transfer_checks >= 3 * 50


# ----------------------------------------------------------------------
# Preprocessing safety: fixing the flagged retailer-shipment variables
# never changes the optimum; the reduction statistic matches a recount.

@criterion("preprocessing-safety (100 tiny instances, exact)")
def test_preprocessing_safety():
    rng = np.random.default_rng(40)
    for _ in range(100):
        ins = tiny_instance(rng)
        removals = compute_removals(ins)
        T = ins.num_periods
        recount = set()
        for r in range(ins.num_retailers):
            rfac = ins.retailer(r)
            wfac = ins.warehouse(int(ins.retailer_warehouse[r]))
            for k in range(T):
                for t in range(k + 1, T):
                    d = float(ins.demand[r, t])
                    if d * ins.holding_cost[rfac, k:t].sum() >= \
                            d * ins.holding_cost[wfac, k:t].sum() \
                            + float(ins.setup_cost[rfac, t]):
                        recount.update((r, k, tp) for tp in range(t, T))
                        break
        assert removals.triples == frozenset(recount)
        pot = ins.num_retailers * T * (T - 1) // 2
        assert removals.num_candidates == pot
        expected_red = 100.0 * len(recount) / pot if pot else 0.0
        assert removals.reduction_percent == expected_red

        base, _, _ = solve_exact(ins, OracleConfig(max_setup_bits=24))
        restricted, _, _ = solve_exact(
            ins, OracleConfig(max_setup_bits=24, forbidden=removals.triples))
        assert restricted == base


# ----------------------------------------------------------------------
# Determinism.

@criterion("determinism (generator, heuristic rerun and iteration order)")
def test_determinism():
    spec = InstanceSpec(num_retailers=6, num_warehouses=2, num_periods=5,
                        demand_type=DemandType.DYNAMIC,
                        fixed_cost_type=FixedCostType.STATIC,
                        network_shape=NetworkShape.UNBALANCED, seed=1234)
    assert write_instance(generate(spec)) == write_instance(generate(spec))

    rng = np.random.default_rng(8)
    ins = tiny_instance(rng)
    config = HeuristicConfig(iterations=50, seed=6)
    first = run(ins, config)
    again = run(ins, config)
    # Iteration i depends only on (seed, i): evaluated in reverse order,
    # the iterations give the same costs.
    reverse = {it: _chunk(ins, config.alpha, config.seed, it, 1)[0].cost
               for it in range(config.iterations, 0, -1)}
    assert first.per_iteration_costs == [reverse[it] for it in range(1, 51)]
    assert first.per_iteration_costs == again.per_iteration_costs
    assert first.best_cost == again.best_cost
    assert np.array_equal(first.best.x, again.best.x)
    assert np.array_equal(first.best.y, again.best.y)
    assert np.array_equal(first.best.s, again.best.s)


# ----------------------------------------------------------------------
# Generator fidelity: sampled values inside the documented ranges and
# assignment counts per the balanced/unbalanced rules, for 20 shapes.

@criterion("generator-fidelity (20 shapes, ranges and assignment rules)")
def test_generator_fidelity():
    import math
    rng = np.random.default_rng(90)
    for i in range(20):
        W = int(rng.integers(1, 8))
        R = int(rng.integers(W, 30))
        T = int(rng.integers(1, 12))
        shape = NetworkShape.BALANCED if i % 2 == 0 else NetworkShape.UNBALANCED
        spec = InstanceSpec(
            num_retailers=R, num_warehouses=W, num_periods=T,
            demand_type=DemandType.STATIC if i % 3 == 0 else DemandType.DYNAMIC,
            fixed_cost_type=FixedCostType.STATIC if i % 4 == 0
            else FixedCostType.DYNAMIC,
            network_shape=shape, seed=i)
        ins = generate(spec)
        assert DEMAND_LO <= ins.demand.min() and ins.demand.max() <= DEMAND_HI
        sc = ins.setup_cost
        assert PLANT_SETUP_LO <= sc[0].min() and sc[0].max() <= PLANT_SETUP_HI
        if W:
            assert WAREHOUSE_SETUP_LO <= sc[1:1 + W].min()
            assert sc[1:1 + W].max() <= WAREHOUSE_SETUP_HI
        assert RETAILER_SETUP_LO <= sc[1 + W:].min()
        assert sc[1 + W:].max() <= RETAILER_SETUP_HI
        hc = ins.holding_cost
        assert np.all(hc[0] == PLANT_HOLDING)
        assert np.all(hc[1:1 + W] == WAREHOUSE_HOLDING)
        assert np.all((hc[1 + W:] >= RETAILER_HOLDING_LO)
                      & (hc[1 + W:] <= RETAILER_HOLDING_HI))
        counts = np.bincount(ins.retailer_warehouse, minlength=W)
        assert counts.sum() == R
        if shape is NetworkShape.BALANCED:
            assert counts.max() - counts.min() <= 1
        else:
            hubs = math.ceil(0.2 * W)
            if hubs < W:
                assert counts[:hubs].sum() == math.floor(0.8 * R)


# ----------------------------------------------------------------------
# Optional external-solver criterion: runs lotforge-lp-solve from PATH,
# or the lotforge.lpsolve module when scipy imports; skips otherwise.

@criterion("external-solver (MC optimum and monotone cut loop; optional)")
def test_external_solver_optional():
    solver = conftest.LP_SOLVE_CMD
    if solver is None:
        pytest.skip("no LP-format solver available (no lotforge-lp-solve, no scipy)")

    rng = np.random.default_rng(60)
    template = shlex.join(solver) + " {lp} {sol} --relax"
    for _ in range(3):
        ins = tiny_instance(rng, max_retailers=2, max_periods=3)

        # Integral MC solve equals the oracle optimum.
        import tempfile, os
        from lotforge.cli import read_point_file
        mc = fm.build_mc(ins)
        with tempfile.TemporaryDirectory() as tmp:
            lp_path = os.path.join(tmp, "mc.lp")
            sol_path = os.path.join(tmp, "mc.sol")
            with open(lp_path, "w") as fh:
                fh.write(fm.export_lp(mc))
            proc = subprocess.run([*solver, lp_path, sol_path],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            with open(sol_path) as fh:
                text = fh.read()
            mc_obj = float(text.splitlines()[0].split()[1])
            point = read_point_file(text)
        optimum, _, _ = solve_exact(ins, OracleConfig(max_setup_bits=24))
        assert abs(mc_obj - optimum) <= 1e-6 * max(1.0, optimum)
        assert fm.evaluate_point(mc, point, tol=1e-5) == []

        # Root cutting-plane rounds never loosen the LP relaxation bound.
        std = fm.build_std(ins)
        source = make_command_lp_source(template)
        objectives = []

        def tracking_source(model):
            point = source(model)
            if point is not None:
                objectives.append(fm.objective_value(std, point))
            return point

        result = cm.cutting_plane_loop(ins, std, tracking_source,
                                       cm.CutConfig(violation_tol=1e-4,
                                                    max_rounds=8,
                                                    two_level_every=2,
                                                    three_level_every=3))
        assert result.status == "ok"
        assert len(objectives) == result.rounds
        for earlier, later in zip(objectives, objectives[1:]):
            assert later >= earlier - 1e-6 * max(1.0, abs(earlier))
        assert objectives[-1] <= optimum + 1e-6 * max(1.0, optimum)
