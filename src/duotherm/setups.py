"""Registry of sweepable estimation setups.

Each id names a stacked builder ``states(t1s, t2s)`` that maps N temperature
pairs to N estimation-ready density matrices, shape (N, d, d), in one call;
calling the evaluator with a single pair (t1, t2) is the N = 1 case and
returns one (d, d) matrix.  The setups are:

- ``mz1b`` / ``mz2b``: single-qubit probe, post-selected + port.  These
  families carry only one effective degree of freedom, so their QFIM is
  singular everywhere; they are kept to exercise the negative results.
- ``mz1b_2q`` / ``mz2b_2q``: two-qubit probe, post-selected + port.
- ``mz1b_wc`` / ``mz2b_wc``: single-qubit probe estimated jointly with the
  control qubit (no post-selection).
- ``swi2`` / ``swi3`` / ``swi4``: quantum switch over two thermalizing
  channels of target dimension 2, 3, 4; estimation on target plus control.

Evaluators are plain frozen dataclasses so they can cross process
boundaries in parallel sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .interferometer import MzConfig, mz_output_state
from .switch import switch_output_state

SETUP_IDS = (
    "mz1b",
    "mz1b_wc",
    "mz1b_2q",
    "mz2b",
    "mz2b_wc",
    "mz2b_2q",
    "swi2",
    "swi3",
    "swi4",
)

_MZ_LAYOUT = {
    # id -> (bath_mode, probe_qubits, estimation_target)
    "mz1b": ("one_bath", 1, "postselected_plus"),
    "mz1b_wc": ("one_bath", 1, "probe_plus_control"),
    "mz1b_2q": ("one_bath", 2, "postselected_plus"),
    "mz2b": ("two_bath", 1, "postselected_plus"),
    "mz2b_wc": ("two_bath", 1, "probe_plus_control"),
    "mz2b_2q": ("two_bath", 2, "postselected_plus"),
}

_SWITCH_DIM = {"swi2": 2, "swi3": 3, "swi4": 4}

# Setups whose estimated register includes the control qubit.
_CONTROL_RETAINED = ("mz1b_wc", "mz2b_wc", "swi2", "swi3", "swi4")


def check_setup_id(setup_id: str) -> str:
    if setup_id not in SETUP_IDS:
        raise ConfigurationError(
            f"unknown setup id {setup_id!r}; expected one of {SETUP_IDS}"
        )
    return setup_id


def effective_dimension(setup_id: str) -> int:
    """Probe dimension times control dimension when the control is retained."""
    check_setup_id(setup_id)
    if setup_id in _SWITCH_DIM:
        probe = _SWITCH_DIM[setup_id]
    else:
        probe = 2 ** _MZ_LAYOUT[setup_id][1]
    control = 2 if setup_id in _CONTROL_RETAINED else 1
    return probe * control


@dataclass(frozen=True)
class SetupEvaluator:
    """Stacked state builder of a registered setup."""

    setup_id: str
    phi: float = math.pi / 2
    eta: float = 1.0
    beta_convention: str = "natural"

    def __post_init__(self):
        check_setup_id(self.setup_id)

    def __call__(self, t1: float, t2: float) -> np.ndarray:
        """The density matrix at one temperature pair."""
        return self.states(t1, t2)

    def states(self, t1s, t2s) -> np.ndarray:
        """Density matrices at the pairs (t1s[k], t2s[k]), built in one stack.

        The result has the temperature arrays' shape followed by (d, d).
        """
        if self.setup_id in _SWITCH_DIM:
            return switch_output_state(
                _SWITCH_DIM[self.setup_id],
                t1s,
                t2s,
                eta=self.eta,
                beta_convention=self.beta_convention,
            )
        bath_mode, qubits, target = _MZ_LAYOUT[self.setup_id]
        cfg = MzConfig(
            bath_mode=bath_mode,
            probe_qubits=qubits,
            estimation_target=target,
            phi=self.phi,
            eta=self.eta,
            beta_convention=self.beta_convention,
        )
        return mz_output_state(cfg, t1s, t2s)


def make_setup(
    setup_id: str,
    phi: float = math.pi / 2,
    eta: float = 1.0,
    beta_convention: str = "natural",
) -> SetupEvaluator:
    return SetupEvaluator(setup_id, phi=phi, eta=eta, beta_convention=beta_convention)
