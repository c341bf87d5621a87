import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import model_reference
from conftest import (convex_combination, lf3_point_from_routes, one_round_cuts,
                      random_routes, tiny_instance)
from lotforge import cuts as cm
from lotforge.formulations import VarId, build_3lf, build_std, export_lp, parse_lp
from lotforge.instance import (Instance, InstanceSpec, cumulative_demand, facility_keys,
                               generate)
from lotforge.oracle import OracleConfig, solve_exact
from lotforge.solution import from_routes
from lotforge.formulations import std_point_from_solution


def fixed_instance():
    return Instance(
        num_periods=4, num_warehouses=1, num_retailers=2,
        retailer_warehouse=[0, 0],
        demand=[[5, 0, 7, 3], [2, 6, 0, 4]],
        setup_cost=[[40.0] * 4, [15.0] * 4, [6.0] * 4, [5.0] * 4],
        holding_cost=[[0.25] * 4, [0.5] * 4, [1.0] * 4, [0.75] * 4])


def zeros_point(instance):
    point = {}
    for fac in range(instance.num_facilities):
        b, idx = int(instance.level[fac]), int(instance.ordinal[fac])
        for k in range(instance.num_periods):
            for fam in ("x", "s", "y"):
                point[VarId(fam, b, idx, k)] = 0.0
    return point


def fractional_point_std(instance, rng):
    point = {}
    cum = cumulative_demand(instance)
    for fac in range(instance.num_facilities):
        b, idx = int(instance.level[fac]), int(instance.ordinal[fac])
        for k in range(instance.num_periods):
            point[VarId("y", b, idx, k)] = float(rng.random())
            point[VarId("x", b, idx, k)] = float(rng.random() * cum[fac, k, -1])
            point[VarId("s", b, idx, k)] = float(rng.random() * 10)
    return point


def fractional_point_3lf(instance, rng):
    point = {}
    cum = cumulative_demand(instance)
    for fac in range(instance.num_facilities):
        b, idx = int(instance.level[fac]), int(instance.ordinal[fac])
        for k in range(instance.num_periods):
            point[VarId("y", b, idx, k)] = float(rng.random())
    for r in range(instance.num_retailers):
        rfac = instance.retailer(r)
        for b in range(3):
            for k in range(instance.num_periods):
                point[VarId("x3", b, r, k)] = float(rng.random() * cum[rfac, k, -1])
                point[VarId("s3", b, r, k)] = float(rng.random() * 10)
    return point


def masks(lo, hi):
    """All bitmasks over bit positions lo..hi inclusive."""
    bits = list(range(lo, hi + 1))
    out = []
    for combo in itertools.product((0, 1), repeat=len(bits)):
        m = 0
        for bit, chosen in zip(bits, combo):
            if chosen:
                m |= 1 << bit
        out.append(m)
    return out


def built_cuts(ins, family, members):
    """{mask combo: cut} for (combo, params) members, built by one
    make_cuts call."""
    combos, params = zip(*members)
    return dict(zip(combos, cm.make_cuts(ins, family, list(params))))


def check_inspection_against_brute(point, built_cuts, inspect_total,
                                   inspect_masks):
    """built_cuts maps each mask combo to a Cut; the inspection result must
    attain the brute-force minimum and pick the inclusion-maximal argmin."""
    values = {combo: cm.eval_inequality(cut, point)
              for combo, cut in built_cuts.items()}
    best = min(values.values())
    assert inspect_total == pytest.approx(best + built_cuts[next(iter(built_cuts))].rhs,
                                          abs=1e-9)
    argmin = [c for c, v in values.items() if v <= best + 1e-9]
    union = tuple(int(np.bitwise_or.reduce([c[i] for c in argmin]))
                  for i in range(len(inspect_masks)))
    assert union in built_cuts and values[union] <= best + 1e-9
    assert tuple(inspect_masks) == union


# ----------------------------------------------------------------------
# eval_inequality basics

def test_eval_missing_variable():
    cut = cm.Cut("SL_STD", (), {VarId("x", 0, 0, 0): 1.0}, 5.0)
    with pytest.raises(KeyError):
        cm.eval_inequality(cut, {})


def test_all_zero_point_slack_is_minus_rhs():
    ins = fixed_instance()
    cum = cumulative_demand(ins)
    point = zeros_point(ins)
    for l in range(4):
        full = (1 << (l + 1)) - 1
        cut, = cm.make_cuts(ins, "SL_STD", [(0, 0, l, full)])
        assert cm.eval_inequality(cut, point) == -cum[0, 0, l]


def test_two_period_hand_computation():
    ins = Instance(num_periods=2, num_warehouses=1, num_retailers=1,
                   retailer_warehouse=[0], demand=[[4, 6]],
                   setup_cost=np.ones((3, 2)), holding_cost=np.ones((3, 2)))
    # l = 1, S = {period 1}: x_r_1 + d_{2,2} * y_r_2 >= d_{1,2} = 10.
    cut, = cm.make_cuts(ins, "SL_STD", [(2, 0, 1, 0b10)])
    point = zeros_point(ins)
    point[VarId("x", 2, 0, 0)] = 4.0
    point[VarId("y", 2, 0, 1)] = 1.0
    assert cm.eval_inequality(cut, point) == pytest.approx(4.0 + 6.0 - 10.0)


# ----------------------------------------------------------------------
# Separator behavior on trivial points

def test_zero_point_yields_full_S_cuts():
    ins = fixed_instance()
    point = zeros_point(ins)
    cuts = cm.separate(ins, "SL_STD", point, tol=10.0)
    assert cuts
    for cut in cuts:
        b, idx, l, mask = cut.params
        assert mask == (1 << (l + 1)) - 1
        assert cut.rhs > 10.0
        assert cm.eval_inequality(cut, point) == -cut.rhs


def test_feasible_integer_point_yields_no_cuts():
    ins = fixed_instance()
    routes = {(r, t): (t, t, t) for r in range(2) for t in range(4)
              if ins.demand[r, t] > 0}
    sol = from_routes(ins, routes)
    point = std_point_from_solution(ins, sol.x, sol.y, sol.s)
    tol = 1e-9
    assert cm.separate(ins, "SL_STD", point, tol) == []
    assert cm.separate(ins, "TL_STD", point, tol) == []
    assert cm.separate(ins, "THL_STD", point, tol) == []


def test_closed_network_two_level_violation():
    ins = fixed_instance()
    point = zeros_point(ins)
    cuts = cm.separate(ins, "TL_STD", point, tol=10.0)
    assert cuts
    cum = cumulative_demand(ins)
    for cut in cuts:
        assert cm.eval_inequality(cut, point) == -cut.rhs
    rhs_values = {cut.params[:2] + (cut.params[3],): cut.rhs for cut in cuts}
    for (b, idx, l), rhs in rhs_values.items():
        fac = 0 if b == 0 else (1 + idx if b == 1 else 1 + 1 + idx)
        assert rhs == cum[fac, 0, l]


def test_separator_soundness_fractional_points():
    rng = np.random.default_rng(11)
    ins = fixed_instance()
    for _ in range(20):
        point = fractional_point_std(ins, rng)
        for family in ("SL_STD", "TL_STD", "THL_STD"):
            for cut in cm.separate(ins, family, point, tol=1.0):
                assert cm.eval_inequality(cut, point) < -1.0
        point3 = fractional_point_3lf(ins, rng)
        for family in ("SL_3LF", "TL_3LF", "THL_3LF"):
            for cut in cm.separate(ins, family, point3, tol=1.0):
                assert cm.eval_inequality(cut, point3) < -1.0


# ----------------------------------------------------------------------
# Validity on random feasible integer solutions

def test_validity_all_families_random_integer_solutions():
    rng = np.random.default_rng(12)
    for _ in range(10):
        ins = tiny_instance(rng)
        for _ in range(20):
            routes = random_routes(ins, rng)
            sol = from_routes(ins, routes)
            std_point = std_point_from_solution(ins, sol.x, sol.y, sol.s)
            tol = 1e-6
            assert cm.separate(ins, "SL_STD", std_point, tol) == []
            assert cm.separate(ins, "TL_STD", std_point, tol) == []
            assert cm.separate(ins, "THL_STD", std_point, tol) == []
            lf_point = lf3_point_from_routes(ins, routes)
            assert cm.separate(ins, "SL_3LF", lf_point, tol) == []
            assert cm.separate(ins, "TL_3LF", lf_point, tol) == []
            assert cm.separate(ins, "THL_3LF", lf_point, tol) == []


# ----------------------------------------------------------------------
# Separation exactness vs brute force over S subsets

def test_single_level_std_brute_force():
    rng = np.random.default_rng(13)
    ins = fixed_instance()
    cum = cumulative_demand(ins)
    for _ in range(5):
        point = fractional_point_std(ins, rng)
        slots = cm._Slots(cm._std_chains(ins, cum), point)
        for fac, key in enumerate(facility_keys(ins)):
            for l in range(4):
                built = built_cuts(ins, "SL_STD", [((m,), key + (l, m)) for m in masks(0, l)])
                total, mask = slots.segment(l, fac, 0, l)
                check_inspection_against_brute(point, built, total, (mask,))


def test_two_level_std_brute_force():
    rng = np.random.default_rng(14)
    ins = fixed_instance()
    cum = cumulative_demand(ins)
    point = fractional_point_std(ins, rng)
    slots = cm._Slots(cm._std_chains(ins, cum), point)
    for fac, succ in cm._two_level_pairs(ins):
        key = facility_keys(ins)[fac] + (int(ins.level[succ[0]]),)
        for l in range(1, 4):
            for li in range(l):
                succ_mask_space = [masks(li + 1, l)] * len(succ)
                built = built_cuts(ins, "TL_STD", [
                    ((um,) + sm, key + (l, li, um, sm))
                    for um in masks(0, li) for sm in itertools.product(*succ_mask_space)])
                total, um = slots.segment(l, fac, 0, li)
                sms = []
                for j in succ:
                    val, m = slots.segment(l, j, li + 1, l)
                    total += val
                    sms.append(m)
                check_inspection_against_brute(point, built, total, (um, *sms))


def test_three_level_std_brute_force():
    rng = np.random.default_rng(15)
    ins = fixed_instance()
    cum = cumulative_demand(ins)
    point = fractional_point_std(ins, rng)
    slots = cm._Slots(cm._std_chains(ins, cum), point)
    W, R = ins.num_warehouses, ins.num_retailers
    for l in range(2, 4):
        for lp in range(l - 1):
            for lw in range(lp + 1, l):
                spaces = ([masks(0, lp)] + [masks(lp + 1, lw)] * W
                          + [masks(lw + 1, l)] * R)
                built = built_cuts(ins, "THL_STD", [
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
                check_inspection_against_brute(point, built, total, chosen)


def test_single_level_3lf_brute_force():
    rng = np.random.default_rng(16)
    ins = fixed_instance()
    cum = cumulative_demand(ins)
    point = fractional_point_3lf(ins, rng)
    slots = cm._Slots(cm._lf3_chains(ins, cum), point)
    for r in range(ins.num_retailers):
        for b in range(3):
            for l in range(4):
                built = built_cuts(ins, "SL_3LF", [((m,), (r, b, l, m)) for m in masks(0, l)])
                total, mask = slots.segment(l, 3 * r + b, 0, l)
                check_inspection_against_brute(point, built, total, (mask,))


def test_two_level_3lf_brute_force():
    rng = np.random.default_rng(17)
    ins = fixed_instance()
    cum = cumulative_demand(ins)
    point = fractional_point_3lf(ins, rng)
    slots = cm._Slots(cm._lf3_chains(ins, cum), point)
    for r in range(ins.num_retailers):
        for b in range(3):
            for b2 in range(b + 1, 3):
                for l in range(1, 4):
                    for lb in range(l):
                        built = built_cuts(ins, "TL_3LF", [
                            ((m1, m2), (r, b, b2, l, lb, m1, m2))
                            for m1 in masks(0, lb) for m2 in masks(lb + 1, l)])
                        t1, m1 = slots.segment(l, 3 * r + b, 0, lb)
                        t2, m2 = slots.segment(l, 3 * r + b2, lb + 1, l)
                        check_inspection_against_brute(point, built, t1 + t2,
                                                       (m1, m2))


def test_three_level_3lf_brute_force():
    rng = np.random.default_rng(18)
    ins = fixed_instance()
    cum = cumulative_demand(ins)
    point = fractional_point_3lf(ins, rng)
    slots = cm._Slots(cm._lf3_chains(ins, cum), point)
    for r in range(ins.num_retailers):
        for l in range(2, 4):
            for l0 in range(l - 1):
                for l1 in range(l0 + 1, l):
                    built = built_cuts(ins, "THL_3LF", [
                        ((m0, m1, m2), (r, l, l0, l1, m0, m1, m2))
                        for m0 in masks(0, l0) for m1 in masks(l0 + 1, l1)
                        for m2 in masks(l1 + 1, l)])
                    t0, m0 = slots.segment(l, 3 * r, 0, l0)
                    t1, m1 = slots.segment(l, 3 * r + 1, l0 + 1, l1)
                    t2, m2 = slots.segment(l, 3 * r + 2, l1 + 1, l)
                    check_inspection_against_brute(point, built, t0 + t1 + t2,
                                                   (m0, m1, m2))


def test_tie_goes_to_setup_term():
    ins = fixed_instance()
    cum = cumulative_demand(ins)
    point = zeros_point(ins)
    # Engineer an exact tie at (plant, period 0): x == d * y.
    point[VarId("y", 0, 0, 0)] = 0.5
    point[VarId("x", 0, 0, 0)] = 0.5 * cum[0, 0, 3]
    slots = cm._Slots(cm._std_chains(ins, cum), point)
    _, mask = slots.segment(3, 0, 0, 3)
    assert mask & 1  # period 0 lands in S despite the tie


def _masks(cut, m):
    """The cut's S masks, one per tier chain (its params end in m masks)."""
    return [mask for tier in cut.params[-m:]
            for mask in (tier if isinstance(tier, tuple) else (tier,))]


def _reference(ins, cut):
    """(key, rhs, terms in order) of the cut rebuilt from its family and
    params by the dict construction of tests/model_reference.py."""
    args = cut.params
    if cut.family in ("SL_STD", "TL_STD"):  # (b, idx) names the facility
        args = (facility_keys(ins).index(args[:2]),) + args[2:]
    ref = model_reference._MAKE[cut.family](ins, cumulative_demand(ins), *args)
    return ref.key(), ref.rhs, list(ref.coefs.items())


def test_masks_above_bit_62():
    # 70 periods: S masks need more than 64 bits, so they must stay ints,
    # in one-chain and in multi-chain tiers alike.
    T = 70
    ins = Instance(num_periods=T, num_warehouses=1, num_retailers=1,
                   retailer_warehouse=[0], demand=[[5] * T],
                   setup_cost=np.ones((3, T)), holding_cost=np.ones((3, T)))
    cum = cumulative_demand(ins)
    point = zeros_point(ins)
    for fac in range(ins.num_facilities):
        b, idx = int(ins.level[fac]), int(ins.ordinal[fac])
        for k in range(T):
            point[VarId("y", b, idx, k)] = 0.1
            point[VarId("x", b, idx, k)] = point[VarId("x3", b, 0, k)] = \
                5.0 if k % 2 == 0 else 0.0
    for family, m in [("SL_STD", 1), ("TL_STD", 2), ("THL_STD", 3),
                      ("SL_3LF", 1), ("TL_3LF", 2), ("THL_3LF", 3)]:
        high = [c for c in cm.separate(ins, family, point, tol=10.0)
                if any(mask >> 63 for mask in _masks(c, m))]
        assert high, family
        for cut in high[::len(high) // 40 + 1]:  # THL families find 13,076 each
            assert _terms(cut) == _reference(ins, cut)
            assert cm.eval_inequality(cut, point) < -10.0
    for cut in cm.separate(ins, "SL_STD", point, tol=10.0):
        b, idx, l, mask = cut.params
        # One facility per level, so its flat index is its level b.
        assert mask == sum(1 << k for k in range(l + 1)
                           if cum[b, k, l] * 0.1 <= point[VarId("x", b, idx, k)])


# ----------------------------------------------------------------------
# make_cuts: a cut is its key

FAMILIES = ("SL_STD", "TL_STD", "THL_STD", "SL_3LF", "TL_3LF", "THL_3LF")


def _terms(cut):
    return cut.key(), cut.rhs, list(cut.coefs.items())


def test_eval_inequality_matches_coefs_sum():
    # The slack is summed over the cut's slots in term order, bit for bit
    # the sum over its coefs dict.
    rng = np.random.default_rng(21)
    found = dict.fromkeys(FAMILIES, 0)
    for _ in range(10):
        ins = tiny_instance(rng)
        points = {"STD": fractional_point_std(ins, rng), "3LF": fractional_point_3lf(ins, rng)}
        for family in FAMILIES:
            point = points[family.partition("_")[2]]
            for cut in cm.separate(ins, family, point, tol=1.0):
                lhs = 0.0
                for var, coef in cut.coefs.items():
                    lhs += coef * point[var]
                assert cm.eval_inequality(cut, point) == lhs - cut.rhs
                found[family] += 1
    assert all(found.values()), found


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_make_cuts_rebuilds_separated_cuts(seed):
    rng = np.random.default_rng(seed)
    ins = tiny_instance(rng)
    # A retailer r whose demand over periods 0..l exceeds 1 (its period-l
    # demand is raised where it does not) ...
    r, l = int(rng.integers(ins.num_retailers)), int(rng.integers(ins.num_periods))
    demand = ins.demand.copy()
    demand[r, l] += max(0, 2 - demand[r, :l + 1].sum())
    ins = dataclasses.replace(ins, demand=demand)
    points = {"STD": fractional_point_std(ins, rng), "3LF": fractional_point_3lf(ins, rng)}
    # ... and none of r's STD flows and setups up to l: r's SL_STD member
    # (l, S = {}) then has left-hand side 0 against that demand.
    for k in range(l + 1):
        points["STD"][VarId("x", 2, r, k)] = points["STD"][VarId("y", 2, r, k)] = 0.0
    found = 0
    for family in FAMILIES:
        cuts = cm.separate(ins, family, points[family.partition("_")[2]], tol=1.0)
        rebuilt = cm.make_cuts(ins, family, [cut.params for cut in cuts])
        assert list(map(_terms, rebuilt)) == list(map(_terms, cuts))
        # The separated cuts are their dict-built rebuilds, ordered by unit
        # (the family table's order), then l, then split points.
        assert list(map(_terms, cuts)) == [_reference(ins, cut) for cut in cuts]
        table = cm._FAMILIES[family][1](ins)
        units, m = {key: u for u, (key, _) in enumerate(table)}, len(table[0][1])
        order = [(units[cut.params[:-2 * m]], *cut.params[-2 * m:-m]) for cut in cuts]
        assert order == sorted(set(order))  # (unit, l, *split), each member once
        found += len(cuts)
    assert found


@pytest.mark.parametrize("family, params", [
    ("SL_STD", (0, 0, -1, 1)),            # l below the first horizon end
    ("SL_STD", (0, 0, 9, 1)),             # l past the horizon
    ("SL_STD", (0, 0, 2, 0b110000)),      # mask bits past l
    ("SL_STD", (0, 0, 2, -1)),            # negative mask
    ("SL_STD", (0, 0, 2)),                # too short
    ("SL_STD", (0, 0, 2, 1, 1)),          # too long
    ("SL_STD", (5, 0, 2, 1)),             # no facility at level 5
    ("SL_3LF", (0, 3, 2, 1)),             # no level 3 on a path
    ("TL_STD", (2, 0, 3, 2, 0, 1, (4,))),  # a retailer has no successors
    ("TL_STD", (0, 0, 1, 2, 0, 1, [4, 4])),  # tier masks must be a tuple
    ("TL_STD", (0, 0, 1, 2, 0, 1, (4,))),  # one mask for two warehouses
    ("TL_3LF", (0, 0, 1, 1, 2, 1, 0)),    # split point past l
    ("TL_3LF", (0, 0, 1, 1, -1, 0, 3)),   # split point below 0
    ("TL_3LF", (0, 0, 1, 2, 0, 0b11, 0)),  # first tier mask past its segment
    ("THL_3LF", (0, 3, 1, 1, 1, 2, 8)),   # split points not increasing
    ("THL_STD", (3, 0, 1, 1, (2, 2), (12,) * 3)),  # one retailer mask short
])
def test_make_cuts_rejects_params_naming_no_member(family, params):
    ins = generate(InstanceSpec(4, 2, 4, seed=1))
    with pytest.raises(ValueError, match=re.escape(f"{params!r}") + ".* " + family):
        cm.make_cuts(ins, family, [params])


# ----------------------------------------------------------------------
# Cutting-plane driver

def test_loop_rejects_mc_models():
    ins = fixed_instance()
    from lotforge.formulations import build_mc
    with pytest.raises(ValueError):
        cm.cutting_plane_loop(ins, build_mc(ins), lambda m: None)


def test_loop_zero_rounds():
    ins = fixed_instance()
    result = cm.cutting_plane_loop(ins, build_std(ins), lambda m: zeros_point(ins),
                                   cm.CutConfig(max_rounds=0))
    assert result.cuts == [] and result.rounds == 0 and result.status == "ok"


def test_loop_optimal_integer_point_stops_immediately():
    ins = fixed_instance()
    _, sol, _ = solve_exact(ins, OracleConfig(max_setup_bits=24))
    point = std_point_from_solution(ins, sol.x, sol.y, sol.s)
    result = cm.cutting_plane_loop(ins, build_std(ins), lambda m: point)
    assert result.cuts == []
    assert result.rounds == 1
    assert result.status == "ok"
    assert result.objective == pytest.approx(sol.cost)


def test_loop_unavailable_source():
    ins = fixed_instance()
    result = cm.cutting_plane_loop(ins, build_std(ins), lambda m: None)
    assert result.status == "lp_unavailable"
    assert result.rounds == 0 and result.cuts == []


def test_loop_scripted_mock_matches_expected_pool():
    ins = fixed_instance()
    bad = zeros_point(ins)
    routes = {(r, t): (t, t, t) for r in range(2) for t in range(4)
              if ins.demand[r, t] > 0}
    sol = from_routes(ins, routes)
    good = std_point_from_solution(ins, sol.x, sol.y, sol.s)
    replies = iter([bad, good])
    seen_models = []

    def source(model):
        seen_models.append(model)
        return next(replies)

    result = cm.cutting_plane_loop(ins, build_std(ins), source)
    expected = cm.separate(ins, "SL_STD", bad, 10.0)
    assert {c.key() for c in result.cuts} == {c.key() for c in expected}
    assert result.rounds == 2
    # Round two's model must include the round-one pool.
    names = [c.name for c in seen_models[1].constraints]
    assert sum(n.startswith("cut_") for n in names) == len(expected)


def test_loop_pools_first_seen_union_across_rounds():
    ins = fixed_instance()
    rng = np.random.default_rng(31)
    first = fractional_point_std(ins, rng)
    # The second point differs in the plant's and a retailer's setups only,
    # so the two rounds' violated sets overlap without being equal.
    second = dict(first)
    for k in range(ins.num_periods):
        second[VarId("y", 0, 0, k)] *= 0.5
        second[VarId("y", 2, 1, k)] = 0.0
    config = cm.CutConfig(violation_tol=1.0, max_rounds=2, two_level_every=1,
                          three_level_every=1)
    replies = iter([first, second])
    result = cm.cutting_plane_loop(ins, build_std(ins), lambda m: next(replies), config)
    rounds = [[cut for family in ("SL_STD", "TL_STD", "THL_STD")
               for cut in cm.separate(ins, family, point, config.violation_tol)]
              for point in (first, second)]
    keys = [{cut.key() for cut in found} for found in rounds]
    assert keys[0] & keys[1] and keys[1] - keys[0]
    union = {}
    for cut in rounds[0] + rounds[1]:
        union.setdefault(cut.key(), cut)
    assert list(map(_terms, result.cuts)) == list(map(_terms, union.values()))
    # A dict-built cut appended to the pool gives the rows the dict
    # construction gives, on built and on parsed models.
    ref = model_reference._MAKE["SL_STD"](ins, cumulative_demand(ins), 1, 3, 0b1010)
    pool = result.cuts + [cm.Cut(ref.family, ref.params, dict(ref.coefs), ref.rhs)]
    want = _cut_rows(model_reference.add_cuts_to_model(model_reference.build_std(ins),
                                                       pool, ins))
    built = build_std(ins)
    for model in (built, parse_lp(export_lp(built))):
        assert _cut_rows(cm.add_cuts_to_model(model, pool)) == want


def test_loop_schedule_and_dedup():
    ins = fixed_instance()
    point = zeros_point(ins)
    calls = []

    def source(model):
        calls.append(len(model.constraints))
        return point

    config = cm.CutConfig(max_rounds=4, two_level_every=2, three_level_every=10)
    result = cm.cutting_plane_loop(ins, build_std(ins), source, config)
    families = {c.family for c in result.cuts}
    assert families == {"SL_STD", "TL_STD"}
    # Round 3 separates single-level only; everything is already pooled,
    # so the loop stops there.
    assert result.rounds == 3
    keys = [c.key() for c in result.cuts]
    assert len(keys) == len(set(keys))
    assert calls == sorted(calls)  # the pool only ever grows


def test_loop_three_level_round():
    ins = fixed_instance()
    point = zeros_point(ins)
    config = cm.CutConfig(max_rounds=4, two_level_every=2, three_level_every=3)
    result = cm.cutting_plane_loop(ins, build_std(ins), lambda m: point, config)
    assert "THL_STD" in {c.family for c in result.cuts}


def test_loop_3lf_space():
    ins = fixed_instance()
    point = {k: 0.0 for k in fractional_point_3lf(ins, np.random.default_rng(0))}
    result = cm.cutting_plane_loop(ins, build_3lf(ins), lambda m: point,
                                   cm.CutConfig(max_rounds=2))
    assert result.cuts
    assert {c.family for c in result.cuts} == {"SL_3LF"}


def _cut_rows(model):
    return [(con.name, list(con.coefs.items()), con.sense, con.rhs)
            for con in model.constraints if con.name.startswith("cut_")]


def test_add_cuts_exported_rows():
    ins = fixed_instance()
    cuts = cm.separate(ins, "SL_STD", zeros_point(ins), 10.0)
    model = cm.add_cuts_to_model(build_std(ins), cuts)
    text = export_lp(model)
    assert f"cut_SL_STD_{len(cuts) - 1}:" in text
    # A parsed model numbers its columns in order of first appearance, not
    # as built; the same pool must give it the same cut rows.
    for build in (build_std, build_3lf):
        built = build(ins)
        parsed = parse_lp(export_lp(built))
        assert parsed.var_ids != built.var_ids
        pool = one_round_cuts(ins, built)
        assert len({cut.family for cut in pool}) > 1
        rows = _cut_rows(cm.add_cuts_to_model(built, pool))
        assert len(rows) == len(pool)
        assert _cut_rows(cm.add_cuts_to_model(parsed, pool)) == rows
