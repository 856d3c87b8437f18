"""Registry of sweepable estimation setups, compiled to coefficient tensors.

Temperature reaches every setup only through the Gibbs populations of the
two baths, and the unnormalized output state is a fixed low-degree
polynomial in them.  Each setup is therefore compiled, once per evaluator,
to a temperature-free coefficient tensor C of shape (K, d, d), K <= 16: the
state builders of ``interferometer`` and ``switch`` run on unit amplitude or
population inputs at the setup's phi and eta, and are otherwise the oracle
that the compiled states are checked against.  ``states(t1s, t2s)`` maps
N temperature pairs to N estimation-ready density matrices, shape
(N, d, d), by one feature contraction: the K features of each pair, the sum
of the features times C, then normalization.  Calling the evaluator with a single pair (t1, t2) is
the N = 1 case and returns one (d, d) matrix.  The setups are:

- ``mz1b`` / ``mz2b``: single-qubit probe, post-selected + port.  These
  families carry only one effective degree of freedom, so their QFIM is
  singular everywhere; they are kept to exercise the negative results.
- ``mz1b_2q`` / ``mz2b_2q``: two-qubit probe, post-selected + port.
- ``mz1b_wc`` / ``mz2b_wc``: single-qubit probe estimated jointly with the
  control qubit (no post-selection).
- ``swi2`` / ``swi3`` / ``swi4``: quantum switch over two thermalizing
  channels of target dimension 2, 3, 4; estimation on target plus control.

Evaluators are plain frozen dataclasses so they can cross process
boundaries in parallel sweeps; they compare and hash by their four
parameters, and carry their compiled tensor along when pickled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channels import ThermalBathSpec, gibbs_probabilities
from .errors import ConfigurationError, DarkPortError
from .interferometer import (AMPLITUDE_MONOMIALS, DARK_PORT_TOL, MzConfig, amplitude_monomials,
                             mz_coefficients, mz_output_state)
from .switch import switch_coefficients, switch_output_state

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


@dataclass(frozen=True, eq=False)
class CompiledSetup:
    """A setup as features and a temperature-free coefficient tensor.

    With v(t) the per-temperature basis (the Gibbs populations of a
    ``levels``-level bath, or the monomials of its amplitudes when
    ``amplitudes`` is set), feature k of a pair is
    f_k = v_a(t1) v_b(t2) + sign_k v_b(t1) v_a(t2) for ``pairs[k]`` =
    (a, b, sign_k), sign_k = 0 when a = b.  The unnormalized state is
    R = sum_k f_k ``coefficients[k]``.  Exchanging t1 and t2 leaves the
    sign +1 and 0 features unchanged and negates the sign -1 ones, exactly.
    """

    levels: int
    amplitudes: bool
    pairs: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        a, b, sign = self.pairs.T
        object.__setattr__(self, "_pairs", (a, b, sign.astype(float)))
        # The real and imaginary planes that are not all zero, contracted
        # separately so that a zero plane adds no signed zeros.
        c = self.coefficients
        for part, planes in (("real", c.real), ("imag", c.imag)):
            kept = np.flatnonzero(planes.reshape(len(c), -1).any(axis=1))
            object.__setattr__(self, f"_{part}", (kept.tolist(), planes[kept].copy()))

    def features(self, t1s: np.ndarray, t2s: np.ndarray, beta_convention: str) -> np.ndarray:
        """The (N, K) features of N temperature pairs; every temperature must
        be positive."""
        n = len(t1s)
        spec = ThermalBathSpec(np.concatenate([t1s, t2s]), tuple(range(self.levels)),
                               beta_convention=beta_convention)
        p = gibbs_probabilities(spec)
        v = amplitude_monomials(np.sqrt(p)) if self.amplitudes else p
        a, b, sign = self._pairs
        # products[n, a, b] = v_a(t1) v_b(t2)
        products = v[:n, :, None] * v[n:, None, :]
        return products[:, a, b] + sign * products[:, b, a]

    def states(self, t1s: np.ndarray, t2s: np.ndarray, beta_convention: str) -> np.ndarray:
        """Normalized states (N, d, d) at N temperature pairs.

        The contraction is an explicit sum over the features, so that each
        point's arithmetic is the same for any N.
        """
        f = self.features(t1s, t2s, beta_convention)
        d = self.coefficients.shape[-1]
        r = np.zeros((len(f), d, d), dtype=complex)
        for part, (kept, planes) in ((r.real, self._real), (r.imag, self._imag)):
            if not kept:
                continue
            acc = f[:, kept[0], None, None] * planes[0]
            for k, plane in zip(kept[1:], planes[1:]):
                acc += f[:, k, None, None] * plane
            part[...] = acc
        prob = np.trace(r, axis1=-2, axis2=-1).real
        if (prob < DARK_PORT_TOL).any():
            raise DarkPortError(
                f"post-selected + branch has probability {np.min(np.maximum(prob, 0.0)):.3e}")
        # r + r^H, with the conjugate taken of the contiguous r and then
        # transposed as a view, which is cheaper than conjugating the view.
        herm = r + r.conj().swapaxes(-1, -2)
        herm /= (2.0 * prob)[:, None, None]
        return herm


def _candidate_pairs(n: int) -> np.ndarray:
    """Candidate pairs (a, b, sign) of an n-term basis: (a, a, 0), and
    (a, b, +1) and (a, b, -1) for a < b."""
    return np.array([(a, b, sign) for a in range(n) for b in range(a, n)
                     for sign in ((0,) if a == b else (+1, -1))])


#: The candidate pairs of the bases in use: the populations of the switch
#: targets and the amplitude monomials of the interferometers.
_CANDIDATE_PAIRS = {n: _candidate_pairs(n)
                    for n in (*_SWITCH_DIM.values(), len(AMPLITUDE_MONOMIALS))}


def _compiled(levels: int, amplitudes: bool, m: np.ndarray) -> CompiledSetup:
    """The setup whose unnormalized state is sum_ab v_a(t1) v_b(t2) m[a, b],
    from m of shape (n, n, d, d).

    The diagonal terms keep their coefficients.  The terms (a, b) and (b, a),
    a < b, become the features v_a(t1) v_b(t2) +/- v_b(t1) v_a(t2) with the
    coefficients (m[a, b] +/- m[b, a]) / 2.  Pairs whose coefficient
    vanishes are left out.
    """
    pairs = _CANDIDATE_PAIRS[len(m)]
    a, b, sign = pairs.T
    flip = np.where(sign < 0, -1.0, 1.0)[:, None, None]
    c = (m[a, b] + flip * m[b, a]) / 2.0
    kept = c.reshape(len(c), -1).any(axis=1)
    return CompiledSetup(levels, amplitudes, pairs[kept], c[kept])


def _mz_config(setup_id: str, phi: float, eta: float, beta_convention: str) -> MzConfig:
    bath_mode, qubits, target = _MZ_LAYOUT[setup_id]
    return MzConfig(bath_mode=bath_mode, probe_qubits=qubits, estimation_target=target,
                    phi=phi, eta=eta, beta_convention=beta_convention)


def compile_setup(setup_id: str, phi: float = math.pi / 2, eta: float = 1.0) -> CompiledSetup:
    """The coefficient tensor of a setup, from its builder run on unit
    amplitude or population inputs at phi and eta.  The beta convention
    enters only the features."""
    check_setup_id(setup_id)
    if not math.isfinite(phi):
        raise ConfigurationError(f"phi must be finite, got {phi!r}")
    if not 0.0 <= eta <= 1.0:
        raise ConfigurationError(f"eta must lie in [0, 1], got {eta!r}")
    if setup_id in _SWITCH_DIM:
        dim = _SWITCH_DIM[setup_id]
        return _compiled(dim, False, switch_coefficients(dim, eta))
    return _compiled(2, True, mz_coefficients(_mz_config(setup_id, phi, eta, "natural")))


@dataclass(frozen=True)
class SetupEvaluator:
    """Stacked state builder of a registered setup, compiled at construction.

    ``compiled`` is derived from the four parameters and takes no part in
    comparison, hashing or the repr.
    """

    setup_id: str
    phi: float = math.pi / 2
    eta: float = 1.0
    beta_convention: str = "natural"
    compiled: CompiledSetup = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "compiled", compile_setup(self.setup_id, self.phi, self.eta))

    def __call__(self, t1: float, t2: float) -> np.ndarray:
        """The density matrix at one temperature pair."""
        return self.states(t1, t2)

    def states(self, t1s, t2s) -> np.ndarray:
        """Density matrices at the pairs (t1s[k], t2s[k]) from one feature
        contraction.

        The result has the temperature arrays' shape followed by (d, d).
        """
        t1s, t2s = np.broadcast_arrays(np.asarray(t1s, dtype=float),
                                       np.asarray(t2s, dtype=float))
        out = self.compiled.states(t1s.reshape(-1), t2s.reshape(-1), self.beta_convention)
        return out.reshape(t1s.shape + out.shape[1:])

    def builder_states(self, t1s, t2s) -> np.ndarray:
        """The same states from the temperature-taking builders, one pair at
        a time: the oracle of the compiled contraction."""
        t1s, t2s = np.broadcast_arrays(np.asarray(t1s, dtype=float),
                                       np.asarray(t2s, dtype=float))
        if self.setup_id in _SWITCH_DIM:
            build = partial(switch_output_state, _SWITCH_DIM[self.setup_id], eta=self.eta,
                            beta_convention=self.beta_convention)
        else:
            build = partial(mz_output_state, _mz_config(self.setup_id, self.phi, self.eta,
                                                        self.beta_convention))
        states = [build(t1, t2) for t1, t2 in zip(t1s.flat, t2s.flat)]
        return np.reshape(states, t1s.shape + states[0].shape)


def make_setup(
    setup_id: str,
    phi: float = math.pi / 2,
    eta: float = 1.0,
    beta_convention: str = "natural",
) -> SetupEvaluator:
    return SetupEvaluator(setup_id, phi=phi, eta=eta, beta_convention=beta_convention)
