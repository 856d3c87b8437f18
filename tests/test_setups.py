"""Setup registry: compiled states, their builder oracle, swap symmetry and
the single-pair case."""
import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duotherm import interferometer, setups, switch
from duotherm.channels import BETA_CONVENTIONS
from duotherm.errors import ConfigurationError, DarkPortError
from duotherm.setups import (SETUP_IDS, compile_setup, direct_compile, effective_dimension,
                             make_setup)
from duotherm.sweep import SweepSpec, records_to_grid, run_sweep
from duotherm.validate import run_checks


@pytest.mark.parametrize("setup_id", SETUP_IDS)
def test_stacked_states_equal_single_pair_builds(setup_id):
    rng = np.random.default_rng([20240901, SETUP_IDS.index(setup_id)])
    t1s, t2s = rng.uniform(0.1, 1.0, size=(2, 7))
    setup = make_setup(setup_id, phi=float(rng.uniform(0.1, 3.0)),
                       eta=float(rng.uniform(0.2, 1.0)))
    states = setup.states(t1s, t2s)
    d = effective_dimension(setup_id)
    assert states.shape == (7, d, d)
    for k in range(7):
        assert states[k].tobytes() == setup(t1s[k], t2s[k]).tobytes()


@pytest.mark.parametrize("setup_id", ["mz2b_wc", "swi3"])
def test_one_non_positive_temperature_rejects_the_stack(setup_id):
    with pytest.raises(ConfigurationError, match="temperature must be positive, got -0.2"):
        make_setup(setup_id).states(np.array([0.3, 0.4, 0.5]), np.array([0.6, -0.2, 0.7]))


phases = st.one_of(st.floats(0.0, math.pi - 0.1), st.floats(math.pi + 0.1, 2.0 * math.pi))
temperature_stacks = st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
                              min_size=1, max_size=6)


@given(setup_id=st.sampled_from(SETUP_IDS), phi=phases, eta=st.floats(0.05, 1.0),
       beta=st.sampled_from(BETA_CONVENTIONS), pairs=temperature_stacks)
@settings(max_examples=60, deadline=None)
def test_compiled_states_match_the_builders(setup_id, phi, eta, beta, pairs):
    # the coefficient tensor reproduces the temperature-taking builders it
    # was compiled from; phases stay 0.1 clear of the shared-bath dark port
    setup = make_setup(setup_id, phi=phi, eta=eta, beta_convention=beta)
    t1s, t2s = np.array(pairs).T
    assert np.max(np.abs(setup.states(t1s, t2s) - setup.builder_states(t1s, t2s))) < 1e-13


@pytest.mark.parametrize("eta", [1.0, 0.37])
@pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, 2.5, math.pi])
def test_two_qubit_states_are_exactly_swap_symmetric(phi, eta):
    # the crossed layout is symmetric under t1 <-> t2 and the shared one
    # turns into its complex conjugate, bit for bit
    rng = np.random.default_rng(20241018)
    t1s, t2s = rng.uniform(0.1, 1.0, size=(2, 20))
    crossed = make_setup("mz2b_2q", phi=phi, eta=eta)
    assert crossed.states(t2s, t1s).tobytes() == crossed.states(t1s, t2s).tobytes()
    shared = make_setup("mz1b_2q", phi=phi, eta=eta)
    assert np.array_equal(shared.states(t2s, t1s), shared.states(t1s, t2s).conj())


@pytest.mark.parametrize("setup_id", ["mz1b_2q", "mz2b_2q"])
@pytest.mark.parametrize("phi", [0.7, math.pi / 2, 2.5])
def test_two_qubit_variances_are_exactly_swap_symmetric(setup_id, phi):
    records = run_sweep(SweepSpec(setup_id, grid_n=16, phi=phi))
    for name in ("var_t1", "var_t2"):
        assert np.isfinite(records_to_grid(records, name)).sum() >= 16 * 15
    var1 = records_to_grid(records, "var_t1")
    var2 = records_to_grid(records, "var_t2")
    assert np.array_equal(var1, var2.T)


def test_compiled_dark_port_is_an_error():
    # identical arms with a pi phase cancel in the plus port
    with pytest.raises(DarkPortError, match="post-selected"):
        make_setup("mz1b", phi=math.pi).states(np.array([0.3, 0.4]), np.array([0.5, 0.4]))


def test_evaluators_compare_hash_and_pickle_by_their_four_parameters():
    setup = make_setup("swi3", phi=1.0, eta=0.5, beta_convention="log2")
    twin = make_setup("swi3", phi=1.0, eta=0.5, beta_convention="log2")
    assert setup == twin and hash(setup) == hash(twin)
    assert setup != make_setup("swi3", phi=1.0, eta=0.6, beta_convention="log2")
    assert repr(setup) == ("SetupEvaluator(setup_id='swi3', phi=1.0, eta=0.5, "
                           "beta_convention='log2')")
    assert [f.name for f in fields(setup) if f.compare] == [
        "setup_id", "phi", "eta", "beta_convention"]
    shipped = pickle.loads(pickle.dumps(setup))
    assert shipped == setup and hash(shipped) == hash(setup)
    t1s, t2s = np.array([0.2, 0.6]), np.array([0.9, 0.3])
    assert shipped.states(t1s, t2s).tobytes() == setup.states(t1s, t2s).tobytes()


def _by_pair(compiled):
    """Coefficient of each kept pair (a, b, sign)."""
    return dict(zip(map(tuple, compiled.pairs.tolist()), compiled.coefficients))


def _planes(coefficient):
    """Whether the real and the imaginary plane of a coefficient are kept."""
    return bool(coefficient.real.any()), bool(coefficient.imag.any())


@pytest.mark.parametrize("setup_id", SETUP_IDS)
def test_tabulated_compile_matches_the_direct_compile(setup_id):
    rng = np.random.default_rng([20261018, SETUP_IDS.index(setup_id)])
    points = [(float(phi), float(eta)) for phi, eta in
              zip(rng.uniform(0.0, 2.0 * math.pi, 200), rng.uniform(0.0, 1.0, 200))]
    points += [(phi, eta) for phi in (0.0, math.pi / 2, math.pi)
               for eta in (0.0, 1e-6, 1.0 - 1e-9, 1.0)]
    zero = np.zeros((effective_dimension(setup_id),) * 2, dtype=complex)
    for phi, eta in points:
        table, direct = _by_pair(compile_setup(setup_id, phi, eta)), _by_pair(
            direct_compile(setup_id, phi, eta))
        # The direct compile may keep a pair or plane of pure rounding noise
        # that the table gives as an exact zero (mz2b's (3, 5, -1), about
        # 6e-17); every other pair and plane is the same.
        for pair in table.keys() | direct.keys():
            ours, theirs = table.get(pair, zero), direct.get(pair, zero)
            assert np.max(np.abs(ours - theirs)) <= 1e-14, (phi, eta, pair)
            for kept, noise in zip(_planes(ours), _planes(theirs)):
                assert kept == noise or (noise and np.max(np.abs(theirs)) < 1e-15), \
                    (phi, eta, pair)


def test_after_the_first_compile_no_builder_runs(monkeypatch):
    for setup_id in SETUP_IDS:
        make_setup(setup_id)

    def forbidden(*args, **kwargs):
        raise AssertionError("a builder ran after the first compile")

    monkeypatch.setattr(interferometer, "_arm_matrices", forbidden)
    monkeypatch.setattr(switch, "_superoperator", forbidden)
    t1s, t2s = np.array([0.2, 0.6]), np.array([0.9, 0.3])
    for setup_id in SETUP_IDS:
        assert np.isfinite(make_setup(setup_id, phi=0.9, eta=0.4).states(t1s, t2s)).all()


def test_a_mutated_table_term_fails_the_compiled_state_check(monkeypatch):
    assert run_checks(["compiled_state_agreement"])[0].passed
    table_of = setups._coefficient_table

    def mutated(setup_id):
        table = table_of(setup_id)
        if setup_id != "swi3":
            return table
        # the constant term, whose weight is 1 at every (phi, eta)
        terms = table.terms.copy()
        row = terms[table.keys.index((0, 0, 0))]
        row[np.argmax(np.abs(row))] *= 1.0 + 1e-9
        return replace(table, terms=terms)

    monkeypatch.setattr(setups, "_coefficient_table", mutated)
    (result,) = run_checks(["compiled_state_agreement"])
    assert not result.passed
    assert "differ from the builders" in result.detail
