"""The array-backed builders, removals and cut rows against the dict-based
ones they replaced (tests/model_reference.py): equal snapshots, down to
the order of every dict and the sign of zeros, and the same LP text."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_reference
import model_reference
from conftest import one_cut_round, one_round_cuts, tiny_instance
from lotforge import formulations as fm
from lotforge import preprocess


def _exact(model) -> str:
    """The model's parts with every number as a float: their repr shows
    every order, value and sign of zero, whatever the number types."""
    return repr(([(d.var, float(d.lb), float(d.ub), bool(d.binary)) for d in model.variables],
                 [(var, float(c)) for var, c in model.objective.items()],
                 [(con.name, [(var, float(c)) for var, c in con.coefs.items()], con.sense,
                   float(con.rhs)) for con in model.constraints]))


def _assert_same(got: str, want: str):
    """Equal texts, or an error that quotes where they first differ (a
    long one-line repr is too slow for pytest's own diff)."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        raise AssertionError(f"first difference at {i}: {got[i - 100:i + 100]!r} "
                             f"!= {want[i - 100:i + 100]!r}")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["build_std", "build_3lf", "build_mc"]), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_model_matches_dict_reference(build, seed, reduced):
    ins = tiny_instance(np.random.default_rng(seed))
    model, expected = getattr(fm, build)(ins), getattr(model_reference, build)(ins)
    if reduced and build == "build_mc":
        removals = preprocess.compute_removals(ins)
        model = preprocess.apply_removals(model, removals)
        expected = model_reference.apply_removals(expected, removals)
    elif reduced:
        expected = model_reference.add_cuts_to_model(expected,
                                                     one_round_cuts(ins, model, seed), ins)
        model = one_cut_round(ins, model, seed)
    assert model.kind == expected.kind
    _assert_same(_exact(model), _exact(expected))
    _assert_same(fm.export_lp(model), lp_reference.export_lp(expected))
