"""Registry of sweepable estimation setups, compiled to coefficient tensors.

Temperature reaches every setup only through the Gibbs populations of the
two baths, and the unnormalized output state is a fixed low-degree
polynomial in them.  Each setup is therefore compiled, once per evaluator,
to a temperature-free coefficient tensor C of shape (K, d, d), K <= 16.
The coefficients are in turn polynomials in the coupling amplitudes
sqrt(1 - eta) and sqrt(eta), and for the interferometers in cos(phi) and
sin(phi): the first compile of a setup id runs the state builders of
``interferometer`` and ``switch`` on unit amplitude or population inputs and
on the parts of the coupling, and keeps the result as a table of (phi,
eta)-free terms.  Every compile, at any (phi, eta), is then one weighted sum
of the table's terms.  The builders run at one (phi, eta)
(``direct_compile``) are the oracle of the table, and the temperature-taking
builders that of the compiled states.  ``states(t1s, t2s)`` maps N
temperature pairs to N estimation-ready density matrices, shape (N, d, d),
by one feature contraction: the K features of each pair, the sum of the
features times C, then normalization.  Calling the evaluator with a single
pair (t1, t2) is the N = 1 case and returns one (d, d) matrix.  The setups
are:

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

import functools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channels import BETA_CONVENTIONS, gibbs_populations
from .errors import ConfigurationError, DarkPortError
from .interferometer import (AMPLITUDE_MONOMIALS, DARK_PORT_TOL, MzConfig, amplitude_monomials,
                             mz_coefficient_table, mz_coefficients, mz_output_state)
from .switch import switch_coefficient_table, switch_coefficients, switch_output_state

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


# Bytes of the feature products of one chunk of states in a contraction
# (every state takes one product per coefficient entry): small enough to
# stay in cache when a sweep block contracts about 1,000 states at once.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class CompiledSetup:
    """A setup as features and a temperature-free coefficient tensor.

    With v(t) the per-temperature basis (the Gibbs populations of a
    ``levels``-level bath, or the monomials of its amplitudes when
    ``amplitudes`` is set), feature k of a pair is
    f_k = v_a(t1) v_b(t2) + sign_k v_b(t1) v_a(t2) for ``pairs[k]`` =
    (a, b, sign_k), sign_k = 0 when a = b.  The unnormalized state is
    R = sum_k f_k ``coefficients[k]``, and the state is R / Tr R.  The
    coefficients are Hermitian, so that R is exactly Hermitian: entry (j, i)
    adds the conjugates of the terms of entry (i, j) in the same order.
    Exchanging t1 and t2 leaves the sign +1 and 0 features unchanged and
    negates the sign -1 ones, exactly.
    """

    levels: int
    amplitudes: bool
    pairs: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        c, (a, b, sign) = np.ascontiguousarray(self.coefficients), self.pairs.T
        # flat indices of (a, b) and (b, a) among the products v_a(t1) v_b(t2)
        size = len(AMPLITUDE_MONOMIALS) if self.amplitudes else self.levels
        object.__setattr__(self, "_pairs", (a * size + b, b * size + a, sign.astype(float)))
        object.__setattr__(self, "_energies", tuple(range(self.levels)))
        # The coefficients as real planes: their real parts when no
        # imaginary part is nonzero, else their real and imaginary parts
        # interleaved, which the contraction views as complex.
        d, interleaved = c.shape[-1], bool(c.imag.any())
        if interleaved:
            planes = c.view(float).reshape(len(c), 1, d, 2 * d)
        else:
            planes = c.real[:, None].copy()
        object.__setattr__(self, "_interleaved", interleaved)
        object.__setattr__(self, "_planes", planes)
        object.__setattr__(self, "_chunk_rows", max(1, _CHUNK_BYTES // max(1, planes.nbytes)))

    def features(self, t1s: np.ndarray, t2s: np.ndarray, beta_convention: str) -> np.ndarray:
        """The (N, K) features of N temperature pairs; every temperature must
        be positive."""
        n = len(t1s)
        t = np.concatenate([t1s, t2s])
        if not (t > 0).all():
            raise ConfigurationError(
                f"temperature must be positive, got {float(t[~(t > 0)][0])!r}")
        p = gibbs_populations(t, self._energies, beta_convention)
        v = amplitude_monomials(np.sqrt(p)) if self.amplitudes else p
        ab, ba, sign = self._pairs
        # products[n, a, b] = v_a(t1) v_b(t2)
        products = (v[:n, :, None] * v[n:, None, :]).reshape(n, -1)
        return products[:, ab] + sign * products[:, ba]

    def states(self, t1s: np.ndarray, t2s: np.ndarray, beta_convention: str) -> np.ndarray:
        """Normalized states (N, d, d) at N temperature pairs.

        The contraction multiplies each feature into its coefficient and
        adds the products in the order of the features, starting from +0,
        so that each point's arithmetic is the same for any N and its zeros
        are +0; it runs in chunks of rows, to keep the products in cache.
        """
        f = self.features(t1s, t2s, beta_convention).T[:, :, None, None]
        n, planes, rows = f.shape[1], self._planes, self._chunk_rows
        r = np.empty((n,) + planes.shape[2:])
        for start in range(0, n, rows):
            chunk = slice(start, start + rows)
            np.add.reduce(f[:, chunk] * planes, axis=0, initial=0.0, out=r[chunk])
        r = r.view(complex) if self._interleaved else r.astype(complex)
        prob = r.trace(axis1=-2, axis2=-1).real
        if (prob < DARK_PORT_TOL).any():
            raise DarkPortError(
                f"post-selected + branch has probability {np.min(np.maximum(prob, 0.0)):.3e}")
        r /= prob[:, None, None]
        return r


def _candidate_pairs(n: int) -> np.ndarray:
    """Candidate pairs (a, b, sign) of an n-term basis: (a, a, 0), and
    (a, b, +1) and (a, b, -1) for a < b."""
    return np.array([(a, b, sign) for a in range(n) for b in range(a, n)
                     for sign in ((0,) if a == b else (+1, -1))])


#: The candidate pairs of the bases in use: the populations of the switch
#: targets and the amplitude monomials of the interferometers.
_CANDIDATE_PAIRS = {n: _candidate_pairs(n)
                    for n in (*_SWITCH_DIM.values(), len(AMPLITUDE_MONOMIALS))}


def _pair_terms(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The candidate pairs and their coefficients (..., P, d, d) of the
    unnormalized state sum_ab v_a(t1) v_b(t2) m[..., a, b], from m of shape
    (..., n, n, d, d).

    The diagonal terms keep their coefficients.  The terms (a, b) and (b, a),
    a < b, become the features v_a(t1) v_b(t2) +/- v_b(t1) v_a(t2) with the
    coefficients (m[a, b] +/- m[b, a]) / 2.  Each coefficient is then
    replaced by its Hermitian part, which is all of it up to rounding.
    """
    pairs = _CANDIDATE_PAIRS[m.shape[-3]]
    a, b, sign = pairs.T
    flip = np.where(sign < 0, -1.0, 1.0)[:, None, None]
    c = (m[..., a, b, :, :] + flip * m[..., b, a, :, :]) / 2.0
    return pairs, (c + c.conj().swapaxes(-1, -2)) / 2.0


def _compiled(levels: int, amplitudes: bool, pairs: np.ndarray, c: np.ndarray) -> CompiledSetup:
    """The setup of the pairs and their coefficients c, without the pairs
    whose coefficient vanishes."""
    kept = c.view(float).reshape(len(c), -1).any(axis=1)
    return CompiledSetup(levels, amplitudes, pairs[kept], c[kept])


def _mz_config(setup_id: str, phi: float, eta: float, beta_convention: str) -> MzConfig:
    bath_mode, qubits, target = _MZ_LAYOUT[setup_id]
    return MzConfig(bath_mode=bath_mode, probe_qubits=qubits, estimation_target=target,
                    phi=phi, eta=eta, beta_convention=beta_convention)


def _basis(setup_id: str) -> tuple[int, bool]:
    """Levels of a setup's baths, and whether its features are amplitude
    monomials rather than populations."""
    return (_SWITCH_DIM[setup_id], False) if setup_id in _SWITCH_DIM else (2, True)


@dataclass(frozen=True, eq=False)
class _Table:
    """A setup id's coefficients as terms: at (phi, eta) the coefficient
    tensor of ``pairs`` is sum_j w_j T_j with
    w_j = sqrt(1 - eta)^a_j sqrt(eta)^b_j trig_j(phi) for ``keys[j]`` =
    (a_j, b_j, i_j) and trig_j = (1, cos, sin)[i_j].  Row j of ``terms``
    holds T_j with the real and imaginary parts of each entry interleaved,
    so that the weighted sum is real arithmetic."""

    pairs: np.ndarray
    keys: tuple[tuple[int, int, int], ...]
    terms: np.ndarray
    shape: tuple[int, int, int]


@functools.cache
def _coefficient_table(setup_id: str) -> _Table:
    """The table of a setup id, built on first use from the builders run on
    the parts of the coupling; only pairs and terms that are not all zero
    are kept."""
    if setup_id in _SWITCH_DIM:
        keys, m = switch_coefficient_table(_SWITCH_DIM[setup_id])
    else:
        keys, m = mz_coefficient_table(_mz_config(setup_id, math.pi / 2, 1.0, "natural"))
    pairs, c = _pair_terms(m)
    present = c.any(axis=(0, 2, 3))
    used = c.any(axis=(1, 2, 3))
    c = np.ascontiguousarray(c[used][:, present])
    return _Table(pairs[present], tuple(map(tuple, keys[used].tolist())),
                  c.view(float).reshape(len(c), -1), c.shape[1:])


def _check_coupling(phi: float, eta: float) -> None:
    if not math.isfinite(phi):
        raise ConfigurationError(f"phi must be finite, got {phi!r}")
    if not 0.0 <= eta <= 1.0:
        raise ConfigurationError(f"eta must lie in [0, 1], got {eta!r}")


def compile_setup(setup_id: str, phi: float = math.pi / 2, eta: float = 1.0) -> CompiledSetup:
    """The coefficient tensor of a setup at phi and eta, one weighted sum of
    the terms of its table.  The beta convention enters only the
    features."""
    check_setup_id(setup_id)
    _check_coupling(phi, eta)
    table = _coefficient_table(setup_id)
    keep, swap, trig = math.sqrt(1.0 - eta), math.sqrt(eta), (1.0, math.cos(phi), math.sin(phi))
    weights = np.array([keep**a * swap**b * trig[i] for a, b, i in table.keys])
    # einsum rather than a BLAS product, which would start threads at this size
    c = np.einsum("j,jk->k", weights, table.terms).view(complex).reshape(table.shape)
    return _compiled(*_basis(setup_id), table.pairs, c)


def direct_compile(setup_id: str, phi: float = math.pi / 2, eta: float = 1.0) -> CompiledSetup:
    """The same tensor from the builders run on unit amplitude or population
    inputs at phi and eta: the oracle of ``compile_setup``."""
    check_setup_id(setup_id)
    _check_coupling(phi, eta)
    if setup_id in _SWITCH_DIM:
        m = switch_coefficients(_SWITCH_DIM[setup_id], eta)
    else:
        m = mz_coefficients(_mz_config(setup_id, phi, eta, "natural"))
    return _compiled(*_basis(setup_id), *_pair_terms(m))


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
        if self.beta_convention not in BETA_CONVENTIONS:
            raise ConfigurationError(f"beta_convention must be one of {BETA_CONVENTIONS}, "
                                     f"got {self.beta_convention!r}")
        object.__setattr__(self, "compiled", compile_setup(self.setup_id, self.phi, self.eta))

    def __call__(self, t1: float, t2: float) -> np.ndarray:
        """The density matrix at one temperature pair."""
        return self.states(t1, t2)

    def states(self, t1s, t2s) -> np.ndarray:
        """Density matrices at the pairs (t1s[k], t2s[k]) from one feature
        contraction.

        The result has the temperature arrays' shape followed by (d, d).
        """
        t1s, t2s = np.asarray(t1s, dtype=float), np.asarray(t2s, dtype=float)
        if t1s.shape != t2s.shape:
            t1s, t2s = np.broadcast_arrays(t1s, t2s)
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
