import gc
import hashlib
import math
import re
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_reference
from conftest import (TEXT_EDITS, apply_edits, convex_combination,
                      lf3_point_from_routes, one_cut_round, random_routes,
                      tiny_instance)
from lotforge import formulations as fm
from lotforge import heuristic, preprocess
from lotforge.instance import (Instance, InstanceSpec, NetworkShape,
                               cumulative_demand, generate)
from lotforge.oracle import OracleConfig, solve_exact
from lotforge.solution import from_routes, write_solution_csv


def small_instance():
    return Instance(
        num_periods=2, num_warehouses=1, num_retailers=1,
        retailer_warehouse=[0], demand=[[4, 6]],
        setup_cost=[[10.0, 12.0], [3.0, 4.0], [1.0, 2.0]],
        holding_cost=[[0.25, 0.25], [0.5, 0.5], [1.0, 1.0]])


def test_var_name_roundtrip():
    cases = [fm.VarId("x", 0, 0, 4), fm.VarId("s", 1, 3, 0),
             fm.VarId("y", 2, 12, 7), fm.VarId("w", 2, 12, 2, 8),
             fm.VarId("sig", 0, 1, 0, 3), fm.VarId("x3", 1, 9, 2),
             fm.VarId("s3", 2, 0, 0)]
    for var in cases:
        assert fm.parse_var_name(var.name()) == var
    assert fm.VarId("y", 1, 3, 6).name() == "y_w3_t7"
    assert fm.VarId("w", 2, 12, 2, 8).name() == "w2_r12_k3_t9"
    with pytest.raises(ValueError):
        fm.parse_var_name("q_p_t1")


# The name grammar as three patterns, one per formulation: the reference
# for the one-pattern bulk parser.
_D = r"([0-9]{1,18})"
_GRAMMAR = [(re.compile(rf"(w|sig)([012])_r{_D}_k{_D}_t{_D}"),
             lambda f, b, r, k, t: fm.VarId(f, int(b), int(r), int(k) - 1, int(t) - 1)),
            (re.compile(rf"([xs])([012])_r{_D}_t{_D}"),
             lambda f, b, r, k: fm.VarId(f + "3", int(b), int(r), int(k) - 1)),
            (re.compile(rf"([xsy])_(p|w{_D}|r{_D})_t{_D}"),
             lambda f, lvl, w, r, k: fm.VarId(f, "pwr".index(lvl[0]), int(w or r or 0),
                                              int(k) - 1))]


def _grammar_parse(name):
    for pattern, make in _GRAMMAR:
        if m := pattern.fullmatch(name):
            return make(*m.groups())
    return None


def test_parse_var_names_matches_grammar():
    names = ["x_p_t1", "s_w3_t7", "y_r12_t9", "w0_r12_k3_t9", "sig2_r1_k1_t30",
             "x1_r5_t3", "s0_r00_t01", "y_w003_t2", "x_r" + "9" * 18 + "_t1",
             "x_r" + "9" * 19 + "_t1", "q_p_t1", "x_p5_t1", "x_w_t1", "y0_r1_t1",
             "w3_r1_k1_t1", "sig0_r1_t1", "x1_r1_k1_t1", "w00_r1_k1_t1", "x_p_t0",
             "x_p_t1:", "", "1.0", "+", "x_r\u0661_t1", "X_p_t1", "x_p_t1x"]
    fields = fm.parse_var_names(names)
    for name, (family, *rest) in zip(names, fields.tolist()):
        expected = _grammar_parse(name)
        got = None if family < 0 else fm.VarId(fm.FAMILIES[family], *rest)
        assert got == expected, name
        if expected is None:
            with pytest.raises(ValueError, match="unparseable variable name"):
                fm.parse_var_name(name)
        else:
            assert fm.parse_var_name(name) == expected
    with pytest.raises(ValueError, match="unparseable variable name"):
        fm.parse_var_name("x_p_t1\n")


def test_std_counts_and_bounds():
    ins = small_instance()
    model = fm.build_std(ins)
    fams = {}
    for decl in model.variables:
        fams.setdefault(decl.var.family, []).append(decl)
    assert len(fams["x"]) == len(fams["s"]) == len(fams["y"]) == 3 * 2
    assert all(d.binary for d in fams["y"])
    cum = cumulative_demand(ins)
    for decl in fams["x"]:
        fac = 0 if decl.var.b == 0 else (1 + decl.var.idx if decl.var.b == 1
                                         else 1 + 1 + decl.var.idx)
        assert decl.ub == cum.tail(fac, decl.var.k)
    names = [c.name for c in model.constraints]
    assert sum(n.startswith("bal_") for n in names) == 6
    assert sum(n.startswith("setup_") for n in names) == 6


def test_std_zero_demand_zeroes_x_bounds():
    ins = Instance(num_periods=2, num_warehouses=1, num_retailers=1,
                   retailer_warehouse=[0], demand=[[0, 0]],
                   setup_cost=np.ones((3, 2)), holding_cost=np.ones((3, 2)))
    model = fm.build_std(ins)
    for decl in model.variables:
        if decl.var.family == "x":
            assert decl.ub == 0.0


def test_mc_commodity_counts():
    ins = small_instance()
    model = fm.build_mc(ins)
    w_vars = [d for d in model.variables if d.var.family == "w"]
    sig_vars = [d for d in model.variables if d.var.family == "sig"]
    # Pairs (k,t) with k <= t for T=2: (0,0), (0,1), (1,1); three levels.
    assert len(w_vars) == 3 * 3
    # Sigma exists only for k < t.
    assert len(sig_vars) == 3 * 1
    for d in w_vars:
        assert d.ub == float(ins.demand[d.var.idx, d.var.t])


def test_routes_satisfy_mc_rows():
    rng = np.random.default_rng(0)
    for _ in range(15):
        ins = tiny_instance(rng)
        model = fm.build_mc(ins)
        routes = random_routes(ins, rng)
        point = {}
        y = np.zeros((ins.num_facilities, ins.num_periods))
        for (r, t), (k0, k1, k2) in routes.items():
            d = float(ins.demand[r, t])
            for b, k in ((0, k0), (1, k1), (2, k2)):
                point[fm.VarId("w", b, r, k, t)] = \
                    point.get(fm.VarId("w", b, r, k, t), 0.0) + d
            for k in range(k0, k1):
                point[fm.VarId("sig", 0, r, k, t)] = d
            for k in range(k1, k2):
                point[fm.VarId("sig", 1, r, k, t)] = d
            for k in range(k2, t):
                point[fm.VarId("sig", 2, r, k, t)] = d
            fac = ins.retailer(r)
            y[(0, ins.parent[fac], fac), (k0, k1, k2)] = 1.0
        for fac in range(ins.num_facilities):
            b, idx = int(ins.level[fac]), int(ins.ordinal[fac])
            for k in range(ins.num_periods):
                point[fm.VarId("y", b, idx, k)] = float(y[fac, k])
        assert fm.evaluate_point(model, point) == []


def test_3lf_counts():
    ins = small_instance()
    model = fm.build_3lf(ins)
    x3 = [d for d in model.variables if d.var.family == "x3"]
    s3 = [d for d in model.variables if d.var.family == "s3"]
    assert len(x3) == len(s3) == 3 * 2  # levels x periods for one retailer
    names = [c.name for c in model.constraints]
    assert sum(n.startswith("bal3_") for n in names) == 6
    assert sum(n.startswith("setup3_") for n in names) == 6


def test_model_size_formulas():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ins = tiny_instance(rng, max_warehouses=3, max_retailers=5, max_periods=5)
        T, R, F = ins.num_periods, ins.num_retailers, ins.num_facilities
        std = fm.build_std(ins)
        assert len(std.variables) == 3 * F * T
        assert len(std.constraints) == 2 * F * T
        lf = fm.build_3lf(ins)
        assert len(lf.variables) == 6 * R * T + F * T
        assert len(lf.constraints) == 6 * R * T
        mc = fm.build_mc(ins)
        pairs = T * (T + 1) // 2
        assert len(mc.variables) == F * T + 3 * R * pairs + 3 * R * (pairs - T)
        assert len(mc.constraints) == 6 * R * pairs


def test_oracle_solution_satisfies_std():
    rng = np.random.default_rng(2)
    for _ in range(10):
        ins = tiny_instance(rng)
        _, sol, _ = solve_exact(ins, OracleConfig(max_setup_bits=24))
        point = fm.std_point_from_solution(ins, sol.x, sol.y, sol.s)
        model = fm.build_std(ins)
        assert fm.evaluate_point(model, point) == []
        assert fm.objective_value(model, point) == pytest.approx(sol.cost)


def test_evaluate_point_names_violated_row():
    ins = small_instance()
    model = fm.build_std(ins)
    point = {d.var: 0.0 for d in model.variables}
    bad = fm.evaluate_point(model, point)
    assert "bal_r0_t1" in bad


def test_map_3lf_to_std_sums_retailers():
    rng = np.random.default_rng(3)
    ins = tiny_instance(rng, max_warehouses=1, max_retailers=3)
    routes = random_routes(ins, rng)
    point = lf3_point_from_routes(ins, routes)
    mapped = fm.map_3lf_to_std(ins, point)
    T = ins.num_periods
    for k in range(T):
        total = sum(point[fm.VarId("x3", 1, r, k)] for r in range(ins.num_retailers))
        assert mapped[fm.VarId("x", 1, 0, k)] == pytest.approx(total)
        assert mapped[fm.VarId("y", 1, 0, k)] == point[fm.VarId("y", 1, 0, k)]


def test_map_3lf_missing_variable():
    ins = small_instance()
    with pytest.raises(KeyError):
        fm.map_3lf_to_std(ins, {})


def test_mapped_integer_point_satisfies_std():
    rng = np.random.default_rng(4)
    for _ in range(15):
        ins = tiny_instance(rng)
        routes = random_routes(ins, rng)
        point = lf3_point_from_routes(ins, routes)
        assert fm.evaluate_point(fm.build_3lf(ins), point) == []
        mapped = fm.map_3lf_to_std(ins, point)
        assert fm.evaluate_point(fm.build_std(ins), mapped) == []
        direct = from_routes(ins, routes)
        expected = fm.std_point_from_solution(ins, direct.x, direct.y, direct.s)
        for var, val in expected.items():
            assert mapped[var] == pytest.approx(val)


def test_mapped_fractional_point_satisfies_std_lp():
    rng = np.random.default_rng(5)
    ins = tiny_instance(rng)
    pts = [lf3_point_from_routes(ins, random_routes(ins, rng)) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    frac = convex_combination(pts, weights)
    mapped = fm.map_3lf_to_std(ins, frac)
    std = fm.build_std(ins)
    # Relax integrality: only rows and continuous bounds must hold.
    rows_only = fm.MipModel(std.kind,
                            [fm.VarDecl(d.var, 0.0, 1.0 if d.binary else d.ub,
                                        False) for d in std.variables],
                            std.objective, std.constraints)
    assert fm.evaluate_point(rows_only, mapped) == []
    obj3 = fm.objective_value(fm.build_3lf(ins), frac)
    objs = fm.objective_value(std, mapped)
    assert objs == pytest.approx(obj3, rel=1e-12)


def test_lp_roundtrip_all_kinds():
    rng = np.random.default_rng(6)
    ins = tiny_instance(rng)
    for build in (fm.build_std, fm.build_mc, fm.build_3lf):
        model = build(ins)
        text = fm.export_lp(model)
        back = fm.parse_lp(text)
        assert back.kind == model.kind
        assert {d.var for d in back.variables} == {d.var for d in model.variables}
        assert back.bounds() == model.bounds()
        assert back.objective == model.objective
        assert len(back.constraints) == len(model.constraints)
        for a, b in zip(back.constraints, model.constraints):
            assert a == b
        # A second export/parse cycle is a fixed point structurally.
        again = fm.parse_lp(fm.export_lp(back))
        assert again.objective == back.objective
        assert again.constraints == back.constraints
        assert again.bounds() == back.bounds()


def test_model_objects_grow_with_columns_not_nonzeros():
    # A model is a column table: building, writing and reading one leaves
    # one VarId per column of the parsed model alive, and no object per
    # row or term (a 20/4/12 MC model has about three terms per column).
    ins = generate(InstanceSpec(20, 4, 12, seed=0))
    gc.collect()
    before = len(gc.get_objects())
    model = fm.build_mc(ins)
    parsed = fm.parse_lp(fm.export_lp(model))
    gc.collect()
    grown = len(gc.get_objects()) - before
    columns, rows, nnz = len(parsed.family), len(parsed.row_names), len(parsed.data)
    assert (columns, rows, nnz) == (len(model.family), len(model.row_names), len(model.data))
    assert nnz > 2.5 * columns and rows > columns
    assert grown < 1.2 * columns


def test_lp_export_deterministic():
    rng = np.random.default_rng(7)
    ins = tiny_instance(rng)
    assert fm.export_lp(fm.build_std(ins)) == fm.export_lp(fm.build_std(ins))


def test_empty_constraint_model():
    var = fm.VarId("y", 0, 0, 0)
    model = fm.MipModel("STD", [fm.VarDecl(var, 0.0, 1.0, True)],
                        {var: 2.0}, [])
    text = fm.export_lp(model)
    assert "Subject To" in text
    back = fm.parse_lp(text)
    assert back.constraints == []
    assert back.objective == {var: 2.0}


def test_parse_errors_carry_location():
    with pytest.raises(fm.LpParseError):
        fm.parse_lp("garbage before sections\nMinimize\n obj: y_p_t1\nEnd\n")
    with pytest.raises(fm.LpParseError) as err:
        fm.parse_lp("Minimize\n obj: y_p_t1\nSubject To\n c1: bogus%name >= 1\nEnd\n")
    assert "c1" in str(err.value)
    with pytest.raises(fm.LpParseError) as err:
        fm.parse_lp("Minimize\n obj: y_p_t1\nSubject To\n c1: x_p_t1 >= 1x\nEnd\n")
    assert "c1" in str(err.value)
    with pytest.raises(fm.LpParseError) as err:
        fm.parse_lp("Minimize\n obj: y_p_t1\nBinaries\n y_r1\nEnd\n")
    assert "y_r1" in str(err.value)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([fm.build_std, fm.build_mc, fm.build_3lf]), TEXT_EDITS)
def test_parse_lp_mutated_text_raises_only_lp_parse_error(build, edits):
    text = apply_edits(fm.export_lp(build(small_instance())), edits)
    try:
        model = fm.parse_lp(text)
    except fm.LpParseError:
        return
    columns = len(model.lb)
    assert (model.indices < columns).all() and (model.obj_cols < columns).all()


@pytest.mark.parametrize("text", [
    "Minimize\n obj: + inf x_p_t1\nEnd\n",
    "Minimize\n obj: x_p_t1\nSubject To\n c1: - inf x_p_t1 >= 1\nEnd\n",
    "Minimize\n obj: 1e999 x_p_t1\nEnd\n",
    "Minimize\n obj: 1e308 x_p_t1 + 1e308 x_p_t1\nEnd\n",
    "Minimize\n obj: x_p_t1\nSubject To\n c1: x_p_t1 >= nan\nEnd\n",
    "Minimize\n obj: x_p_t1\nBounds\n x_p_t1 <= nan\nEnd\n",
    "Minimize\n obj: x_p_t1\nBounds\n NaN <= x_p_t1 <= 5.0\nEnd\n",
], ids=["inf-objective", "inf-row", "overflowing-number", "overflowing-sum",
        "nan-rhs", "nan-bound", "nan-lower-bound"])
def test_parse_lp_rejects_non_finite_numbers(text):
    with pytest.raises(fm.LpParseError):
        fm.parse_lp(text)


def test_parse_lp_keeps_infinite_bounds():
    model = fm.parse_lp("Minimize\n obj: x_p_t1 + s_p_t1\nBounds\n"
                        " -inf <= x_p_t1 <= 5.0\n s_p_t1 >= -inf\nEnd\n")
    x, s = model.bounds()[fm.VarId("x", 0, 0, 0)], model.bounds()[fm.VarId("s", 0, 0, 0)]
    assert (x.lb, x.ub) == (-math.inf, 5.0)
    assert (s.lb, s.ub) == (-math.inf, math.inf)


# Differential tests: export_lp and parse_lp against the writer and reader
# they replaced (tests/lp_reference.py).

_COEFS = [0.0, -0.0, 1, -2, 3.5, -0.1, 1e-300, -1e300, 2 ** 60,
          np.float64(0.25), np.float64(-7.0), np.float64(0.0)]
_UNDECLARED = [fm.VarId("x", 2, 99, 0), fm.VarId("w", 0, 7, 0, 3),
               fm.VarId("s3", 1, 42, 5)]
# A term's variable: an undeclared one, or an index into the declared ones.
_TERMS = st.lists(st.tuples(st.one_of(st.sampled_from(_UNDECLARED),
                                      st.integers(0, 10 ** 6)),
                            st.sampled_from(_COEFS)), max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([fm.build_std, fm.build_mc, fm.build_3lf]),
       st.integers(0, 2 ** 32 - 1), st.booleans(), _TERMS,
       st.lists(st.tuples(_TERMS, st.sampled_from(["=", "<=", ">="]),
                          st.sampled_from(_COEFS)), max_size=4))
def test_export_lp_matches_reference(build, seed, cut_round, obj_terms, rows):
    ins = tiny_instance(np.random.default_rng(seed))
    model = build(ins)
    if cut_round and model.kind != "MC":
        model = one_cut_round(ins, model, seed)
    declared = [d.var for d in model.variables]

    def var(v):
        return declared[v % len(declared)] if isinstance(v, int) else v

    objective = dict(model.objective)
    objective.update((var(v), c) for v, c in obj_terms)
    extra = [fm.Constraint(f"extra{n}", {var(v): c for v, c in terms}, sense, rhs)
             for n, (terms, sense, rhs) in enumerate(rows)]
    known = set(declared)
    undeclared = [v for v in chain(objective, *(con.coefs for con in extra)) if v not in known]
    if undeclared:
        with pytest.raises(ValueError, match=re.escape(undeclared[0].name())):
            fm.MipModel(model.kind, model.variables, objective, model.constraints + extra)
        # The draw's declared terms are still compared with the reference.
        objective = {v: c for v, c in objective.items() if v in known}
        extra = [con._replace(coefs={v: c for v, c in con.coefs.items() if v in known})
                 for con in extra]
    model = fm.MipModel(model.kind, model.variables, objective,
                        model.constraints + extra)
    assert fm.export_lp(model) == lp_reference.export_lp(model)


def _has_non_finite(model: fm.MipModel) -> bool:
    coefs = list(model.objective.values())
    for con in model.constraints:
        coefs.extend(con.coefs.values())
    return (not all(map(math.isfinite, coefs))
            or any(math.isnan(con.rhs) for con in model.constraints)
            or any(math.isnan(d.lb) or math.isnan(d.ub) for d in model.variables))


def _assert_parses_like_reference(text, same_message=False):
    """parse_lp returns the reference's model (equal down to the order of
    every dict and the sign of zeros), or raises LpParseError where the
    reference raises or where the reference's model holds a number that is
    not finite."""
    try:
        expected = lp_reference.parse_lp(text)
    except ValueError as ref_err:
        with pytest.raises(fm.LpParseError) as err:
            fm.parse_lp(text)
        assert not same_message or str(err.value) == str(ref_err)
        return
    try:
        model = fm.parse_lp(text)
    except fm.LpParseError:
        assert _has_non_finite(expected)
        return
    assert repr(model) == repr(expected)


def _std_with_cuts():
    ins = small_instance()
    return one_cut_round(ins, fm.build_std(ins))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([fm.build_std, fm.build_mc, fm.build_3lf, None]), TEXT_EDITS)
def test_parse_lp_matches_reference_on_mutated_text(build, edits):
    model = _std_with_cuts() if build is None else build(small_instance())
    _assert_parses_like_reference(apply_edits(fm.export_lp(model), edits))


@pytest.mark.parametrize("header", [
    "Subject To", "SUBJECT TO", "subject  to", "st", "S.T.", "\u017ft",
    "\u017fubject to", "B\u0131naries", "b\u0130nary", "Generals", "End", "Maximize"])
def test_parse_lp_section_headers_match_reference(header):
    text = fm.export_lp(_std_with_cuts())
    _assert_parses_like_reference(text.replace("Subject To\n", header + "\n"))
    _assert_parses_like_reference(text.replace("Binaries\n", header + "\n"))


@pytest.mark.parametrize("text", [
    " obj: x_p_t1 + 2 x_p_t1 - 0.5 y_p_t1 - 0.5 x_p_t1",
    " obj: - 0.0 x_p_t1 + -0.0 y_p_t1 + 0 s_p_t1",
    " obj: 3 + x_p_t1 - 4 - y_p_t1",
    " obj: x_p_t1\nSubject To\n c1: x_p_t1\n >= 1 c2 : y_p_t1 <= 2\n c3:x_p_t1 = 0 :",
    " obj: x_p_t1\nSubject To\n c1: x_p_t1 >= 1 >= 2",
    " obj: x_p_t1\nSubject To\n c1: x_p_t1 < 1\n c2: x_p_t1 > 1e3",
    " obj: x_p_t1\nSubject To\n c1: x_p_t1 >=",
    " obj: x_p_t1 2 3 y_p_t1",
    " obj: x_p_t1 4",
    " obj: x_p_t1\nBounds\n x_p_t1 free\n y_p_t1 = 2\n 1 <= s_p_t1 <= 3\n s_p_t1 3",
    " obj: x_p_t1\nBinaries\n y_p_t1 x_p_t1\n 5",
    "x_p_t1 + y_p_t1",
    " obj: x_p_t1 + x_r9999999999999999999_t1",
    " obj: x_r01_t1 + x_r1_t1 - 2 x_r001_t01\nSubject To\n c1: y_w03_t2 - x_r1_t1 >= 1\n"
    "Bounds\n x_r1_t01 <= 4\nBinaries\n y_w3_t2",
    " obj: x_p_t1\nSubject To\n c1: >= 1.0\n c2: x_p_t1 <= 2",
    " obj: x_p_t1\nSubject To\n c1: x_p_t1 >= 1\n: y_p_t1 <= 2",
    " obj: x_p_t1\nSubject To\n c1\n: x_p_t1 >= 1",
    " obj: x_p_t1 + y_p_t1\r\nSubject To\r\n c1: x_p_t1\r\n >= 1\r\nBounds\r\n x_p_t1 <= 4",
    " obj: x_p_t1\u2028Subject To\x0c c1: x_p_t1 >= 1\u2028 c2 : y_p_t1 <= 2\x0cBounds"
    "\u2028 x_p_t1 <= 3\x0c 0 <= y_p_t1 <= 1",
    " obj:\xa0x_p_t1 +\xa02\xa0y_p_t1\nSubject To\n c1:\xa0x_p_t1\xa0>=\xa01\xa0c2 :\xa0y_p_t1 <= 1",
    " obj: x_p_t1\nSubject To\n c1 : x_p_t1 >= 1 c2 : - y_p_t1 <= 2",
], ids=["repeated-variable", "signed-zeros", "sign-drops-number", "labels-across-lines",
        "two-senses", "strict-senses", "no-rhs", "dangling-number",
        "trailing-number", "bounds", "binaries", "no-label", "index-beyond-int64",
        "leading-zeros", "empty-row", "colon-at-line-start", "label-colon-next-line",
        "crlf", "u2028-and-form-feed", "no-break-space", "two-spaced-labels-on-a-line"])
def test_parse_lp_hand_written_text_matches_reference(text):
    _assert_parses_like_reference(f"Minimize\n{text}\nEnd\n", same_message=True)


def test_parse_lp_across_a_block_boundary_matches_reference():
    # More rows than one block of lines: the row at the boundary has no
    # coefficient, a repeated variable and a 'name :' label, and goes on in
    # the next block with a variable that first appears there.
    rows = [f" r{i}: + 1.0 x_r{i % 50}_t1 - 2.5 y_r{i % 50}_t1 >= {i}.0"
            for i in range(fm._BLOCK + 20)]
    rows[fm._BLOCK - 1] = " edge : x_r3_t1 + x_r3_t1 - 1.5 x_r3_t1"
    rows[fm._BLOCK] = " - s_w7_t2 <= 4.0"
    text = ("Minimize\n obj: + 1.0 x_r0_t1\nSubject To\n" + "\n".join(rows)
            + "\nBounds\n s_w7_t2 <= 9.0\nEnd\n")
    _assert_parses_like_reference(text, same_message=True)
    row = f" r{fm._BLOCK + 5}: + 1.0"
    _assert_parses_like_reference(text.replace(row, row + " 2.0"), same_message=True)
    model = fm.parse_lp(text)
    edge = fm.VarId("x", 2, 3, 0)
    assert model.constraints[fm._BLOCK - 1] == fm.Constraint(
        "edge", {edge: 0.5, fm.VarId("s", 1, 7, 1): -1.0}, "<=", 4.0)
    assert model.variables[-1] == fm.VarDecl(fm.VarId("s", 1, 7, 1), 0.0, 9.0, False)


def test_mip_start_export():
    point = {fm.VarId("y", 0, 0, 0): 1.0, fm.VarId("x", 0, 0, 0): 12.5}
    text = fm.export_mip_start(point)
    assert text == "y_p_t1 1.0\nx_p_t1 12.5\n"


# SHA-256 of the byte-stable outputs on a 12/3/6 unbalanced instance
# (seed 0, retailers 0-8 at warehouse 0), captured before the network
# arrays replaced the per-module facility key helpers. The two cut-row
# texts (one round of all six families at a replayed fractional point)
# were captured before export_lp built its name table.
GOLDEN_SHA256 = {
    "std_lp": "c2a2b5a3c77930699800e34f4a41272e881a3826d7c3015bce71be4ade76eb85",
    "3lf_lp": "82e8b9979c209d9f3c31b5bd8578797352b728d4889815cff34823977a808c9f",
    "std_cut_lp": "27e3e4c1721433a21726b2d3073fcdc3e442f7c54257b08ad1d11467bc02e5a1",
    "3lf_cut_lp": "6129da2d6292ac6f9be89cad832ce74448bf87f131548375465408f1741aaa76",
    "mc_lp": "01ab785e5c80ac8f63cc73f9c766d199e58ce6f3a5335652a20a4dfc536a7c67",
    "removal_csv": "50b5367a34b9490691cdf908837b977b75c5ee8496913afb3f93fe784a1680ab",
    "solution_csv": "fe5bf3bbcc4646bfdb1ba8763c376e8008e7e6bad52fa8cddb7f6771f2e54deb",
}


def test_golden_outputs_byte_stable():
    ins = generate(InstanceSpec(12, 3, 6, network_shape=NetworkShape.UNBALANCED,
                                seed=0))
    removals = preprocess.compute_removals(ins)
    best = heuristic.run(ins, heuristic.HeuristicConfig(iterations=20, seed=0)).best
    texts = {
        "std_lp": fm.export_lp(fm.build_std(ins)),
        "3lf_lp": fm.export_lp(fm.build_3lf(ins)),
        "std_cut_lp": fm.export_lp(one_cut_round(ins, fm.build_std(ins))),
        "3lf_cut_lp": fm.export_lp(one_cut_round(ins, fm.build_3lf(ins))),
        "mc_lp": fm.export_lp(preprocess.apply_removals(fm.build_mc(ins), removals)),
        "removal_csv": preprocess.removal_report_csv(removals),
        "solution_csv": write_solution_csv(ins, best),
    }
    digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()}
    assert digests == GOLDEN_SHA256
