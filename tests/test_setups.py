"""Setup registry: the stacked state builders and their single-pair case."""
import numpy as np
import pytest

from duotherm.errors import ConfigurationError
from duotherm.setups import SETUP_IDS, effective_dimension, make_setup


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
