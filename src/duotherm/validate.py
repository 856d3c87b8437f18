"""Named self-checks mirroring the package's module invariants.

Each check draws its own seeded RNG stream, so the suite is reproducible for
a fixed seed.  Checks accept a ``defective`` flag used as a negative control:
when set, the check feeds itself a corrupted input and is expected to FAIL,
demonstrating that the check actually bites.
"""
from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from . import channels, tensor
from .errors import ChannelConstructionError, ConfigurationError
from .estimation import (DerivativeConfig, evaluate_bounds, qfim, qfim_eigensum,
                         sld_operators, state_and_derivatives)
from .interferometer import MzConfig, mz_output_state
from .setups import SETUP_IDS, direct_compile, make_setup
from .sweep import SweepSpec, emit_csv, emit_pgm_heatmap, read_csv, run_sweep
from .switch import (switch_channel_choi, switch_kraus_output, switch_output_state,
                     switch_process_output, thermal_switch_config)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str = ""


def _random_temps(rng: np.random.Generator, n: int = 2) -> list[float]:
    return [float(t) for t in rng.uniform(0.1, 1.0, size=n)]


def check_tensor_partial_trace(rng: np.random.Generator, defective: bool = False) -> str:
    dims = [2, 3, 2]
    rho = tensor.random_density_matrix(rng, 12)
    if defective:
        rho = rho + 0.05 * np.eye(12)  # trace pushed away from 1
    for keep in ((0,), (1,), (0, 2), (0, 1, 2)):
        red = tensor.partial_trace(rho, dims, keep)
        tensor.validate_density_matrix(red)
    full = tensor.partial_trace(rho, dims, ())
    assert abs(full[0, 0] - 1.0) < 1e-10, "trace over all factors should be 1"
    return "keep-sets (0,), (1,), (0,2), full, empty"


def check_tensor_eig_reconstruction(rng: np.random.Generator, defective: bool = False) -> str:
    worst = 0.0
    for _ in range(10):
        m = tensor.random_density_matrix(rng, 6)
        if defective:
            m = m + 1e-6 * rng.normal(size=(6, 6))  # non-Hermitian perturbation
        vals, vecs = tensor.herm_eig(m)
        assert (np.diff(vals) >= -1e-12).all(), "eigenvalues must ascend"
        rebuilt = (vecs * vals) @ vecs.conj().T
        worst = max(worst, float(np.max(np.abs(rebuilt - m))))
    assert worst < 1e-9, f"reconstruction defect {worst:.2e}"
    return f"worst reconstruction {worst:.2e}"


def check_channel_completeness(rng: np.random.Generator, defective: bool = False) -> str:
    for t in _random_temps(rng, 4):
        spec = channels.ThermalBathSpec(temperature=t, eta=float(rng.uniform(0.2, 1.0)))
        ops = channels.gadc_kraus(spec).ops
        if defective:
            ops = ops * 1.01
        gram = np.einsum("aji,ajk->ik", ops.conj(), ops)
        defect = float(np.max(np.abs(gram - np.eye(2))))
        assert defect < 1e-10, f"completeness defect {defect:.2e}"
    return "gadc over 4 random specs"


def check_channel_fixed_point(rng: np.random.Generator, defective: bool = False) -> str:
    t = _random_temps(rng, 1)[0]
    spec = channels.ThermalBathSpec(temperature=t, eta=1.0)
    gibbs = np.diag(channels.gibbs_probabilities(spec)).astype(complex)
    rho = tensor.random_density_matrix(rng, 2)
    out = channels.apply_channel(channels.gadc_kraus(spec), rho)
    if defective:
        out = out + 1e-6
    err = float(np.max(np.abs(out - gibbs)))
    assert err < 1e-12, f"eta=1 output is {err:.2e} from the Gibbs state"
    return f"fixed-point error {err:.2e}"


def check_channel_dilation(rng: np.random.Generator, defective: bool = False) -> str:
    t = _random_temps(rng, 1)[0]
    eta = float(rng.uniform(0.0, 1.0))
    spec = channels.ThermalBathSpec(temperature=t, eta=eta)
    rho = tensor.random_density_matrix(rng, 2)
    via_kraus = channels.apply_channel(channels.gadc_kraus(spec), rho)
    bath = channels.purified_bath_state(spec)
    joint = tensor.kron(rho, np.outer(bath, bath.conj()))
    u = tensor.embed_operator(channels.dilation_unitary(eta if not defective else eta * 0.9),
                              [2, 2, 2], (0, 1))
    evolved = u @ joint @ u.conj().T
    via_dilation = tensor.partial_trace(evolved, [2, 2, 2], (0,))
    err = float(np.max(np.abs(via_kraus - via_dilation)))
    assert err < 1e-10, f"kraus vs dilation differ by {err:.2e}"
    return f"route difference {err:.2e}"


def check_mz_state_validity(rng: np.random.Generator, defective: bool = False) -> str:
    t1s = _random_temps(rng, 4)
    t2s = _random_temps(rng, 4)
    phi = float(rng.uniform(0.0, math.pi))
    combos = [("one_bath", 1, "postselected_plus"), ("one_bath", 2, "postselected_plus"),
              ("two_bath", 1, "probe_plus_control"), ("two_bath", 2, "postselected_plus")]
    for bath_mode, qubits, target in combos:
        cfg = MzConfig(bath_mode=bath_mode, probe_qubits=qubits,
                       estimation_target=target, phi=phi)
        for t1, t2 in zip(t1s, t2s):
            state = mz_output_state(cfg, t1, t2)
            if defective:
                state = state * 1.01
            tensor.validate_density_matrix(state)
    return f"4 layouts at phi={phi:.3f}, {len(t1s)} temperature pairs each"


def check_mz_swap_symmetry(rng: np.random.Generator, defective: bool = False) -> str:
    t1, t2 = _random_temps(rng)
    worst = 0.0
    for setup_id in ("mz2b_wc", "mz1b_2q", "mz2b_2q"):
        setup = make_setup(setup_id)
        _, fwd = evaluate_bounds(setup, t1, t2)
        _, rev = evaluate_bounds(setup, t2, t1 if not defective else t1 * 1.05)
        if math.isfinite(fwd.var_t1) and math.isfinite(rev.var_t2):
            worst = max(worst, abs(fwd.var_t1 - rev.var_t2))
        elif math.isfinite(fwd.var_t1) != math.isfinite(rev.var_t2):
            raise AssertionError(f"{setup_id}: finite/singular mismatch under swap")
    assert worst < 1e-8, f"swap symmetry violated by {worst:.2e}"
    return f"worst |var1(a,b)-var2(b,a)| = {worst:.2e}"


def check_mz_phase_independence(rng: np.random.Generator, defective: bool = False) -> str:
    t1, t2 = _random_temps(rng)
    worst = 0.0
    for setup_id in ("mz1b_wc", "mz2b_wc"):
        _, a = evaluate_bounds(make_setup(setup_id, phi=0.0), t1, t2)
        _, b = evaluate_bounds(make_setup(setup_id, phi=math.pi / 2), t1, t2)
        if defective:
            b = type(b)(b.var_t1 * 1.01, b.var_t2, b.cov, b.total_var, b.repetitions)
        worst = max(worst, abs(a.var_t1 - b.var_t1), abs(a.var_t2 - b.var_t2))
    assert worst < 1e-6, f"with-control variances moved by {worst:.2e} under phi"
    return f"worst phi drift {worst:.2e}"


def check_compiled_state_agreement(rng: np.random.Generator, defective: bool = False) -> str:
    """Compiled states of all nine setups against the temperature-taking
    builders, and against the states of the direct compile at the same
    (phi, eta), at random (t1, t2, phi, eta) under both beta conventions,
    within 1e-13 (max abs).  The negative control scales the largest
    coefficient of every compiled tensor by 1 + 1e-9."""
    worst = worst_direct = 0.0
    for setup_id in SETUP_IDS:
        for beta in channels.BETA_CONVENTIONS:
            phi, eta = float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(0.05, 1.0))
            setup = make_setup(setup_id, phi=phi, eta=eta, beta_convention=beta)
            t1s, t2s = np.array(_random_temps(rng, 4)), np.array(_random_temps(rng, 4))
            compiled = setup.compiled
            if defective:
                c = compiled.coefficients.copy()
                c.flat[np.argmax(np.abs(c))] *= 1.0 + 1e-9
                compiled = replace(compiled, coefficients=c)
            states = compiled.states(t1s, t2s, beta)
            worst = max(worst, float(np.max(np.abs(states - setup.builder_states(t1s, t2s)))))
            direct = direct_compile(setup_id, phi, eta).states(t1s, t2s, beta)
            worst_direct = max(worst_direct, float(np.max(np.abs(states - direct))))
    assert worst < 1e-13, f"compiled states differ from the builders by {worst:.2e}"
    assert worst_direct < 1e-13, \
        f"compiled states differ from the direct compile by {worst_direct:.2e}"
    return (f"9 setups x 2 beta conventions, 4 pairs each, worst difference {worst:.2e}, "
            f"from the direct compile {worst_direct:.2e}")


def check_switch_route_equivalence(rng: np.random.Generator, defective: bool = False) -> str:
    """The Kraus route on a random input, and the thermal builder on its
    ground-state input with the control in |+>, against the process-matrix
    route."""
    t1, t2 = _random_temps(rng)
    dim = int(rng.integers(2, 4))
    shift = 1.1 if defective else 1.0
    cfg = thermal_switch_config(dim, t1, t2 * shift)
    rho = tensor.random_density_matrix(rng, dim)
    via_kraus = switch_kraus_output(cfg, rho)
    cfg_clean = thermal_switch_config(dim, t1, t2)
    via_process = switch_process_output(cfg_clean, rho)
    err = float(np.max(np.abs(via_kraus - via_process)))
    ground = np.zeros((dim, dim), dtype=complex)
    ground[0, 0] = 1.0
    built = max(
        float(np.max(np.abs(switch_output_state(dim, a, b * shift)
                            - switch_process_output(thermal_switch_config(dim, a, b), ground))))
        for a, b in zip(_random_temps(rng, 3), _random_temps(rng, 3))
    )
    assert err < 1e-10, f"kraus vs process routes differ by {err:.2e}"
    assert built < 1e-10, f"thermal builder vs process route differ by {built:.2e}"
    return f"d={dim}, route difference {err:.2e}, thermal builder {built:.2e}"


def check_switch_choi_cptp(rng: np.random.Generator, defective: bool = False) -> str:
    t1, t2 = _random_temps(rng)
    dim = 2
    choi = switch_channel_choi(thermal_switch_config(dim, t1, t2))
    if defective:
        choi = choi - 1e-6 * np.eye(choi.shape[0])
    vals = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    assert vals.min() > -1e-10, f"Choi not PSD: min eigenvalue {vals.min():.2e}"
    in_dim = dim * 2
    reduced = tensor.partial_trace(choi, [in_dim, in_dim], (0,))
    err = float(np.max(np.abs(reduced - np.eye(in_dim))))
    assert err < 1e-10, f"trace-preservation defect {err:.2e}"
    return "Choi is CP and TP"


def check_qfi_thermal_qubit(rng: np.random.Generator, defective: bool = False) -> str:
    t = _random_temps(rng, 1)[0]
    spec = channels.ThermalBathSpec(temperature=t)
    cfg = DerivativeConfig()

    def gibbs_at(temp):
        s = channels.ThermalBathSpec(temperature=temp)
        return np.diag(channels.gibbs_probabilities(s)).astype(complex)

    h = cfg.step * max(1.0, t)
    rho = gibbs_at(t)
    d1 = (gibbs_at(t + h) - gibbs_at(t - h)) / (2 * h)
    d2 = np.zeros_like(rho)
    l1, l2 = sld_operators(rho, d1, d2, cfg)
    info = qfim(rho, l1, l2, cfg)
    p = channels.gibbs_probabilities(spec)[0]
    dp = -p * (1 - p) * (0.0 - 1.0) / t**2
    expected = dp**2 / (p * (1 - p))
    if defective:
        expected = expected * 1.01
    err = abs(info.qfim[0, 0] - expected)
    assert err < 1e-6, f"thermal-qubit QFI off by {err:.2e}"
    return f"T={t:.3f}, error {err:.2e}"


def check_qfim_route_agreement(rng: np.random.Generator, defective: bool = False) -> str:
    """The pipeline's eigenbasis QFIM and the back-rotated SLDs' QFIM both
    agree with the eigen-sum oracle."""
    t1, t2 = _random_temps(rng)
    cfg = DerivativeConfig()
    setup = make_setup("mz2b_wc")
    rho, d1, d2 = state_and_derivatives(setup, t1, t2, cfg)
    via_eigsum = qfim_eigensum(rho, d1 * 1.001 if defective else d1, d2, cfg)
    via_pipeline = evaluate_bounds(setup, t1, t2, cfg)[0].qfim
    via_slds = qfim(rho, *sld_operators(rho, d1, d2, cfg), cfg).qfim
    errs = [float(np.max(np.abs(q - via_eigsum))) for q in (via_pipeline, via_slds)]
    assert max(errs) < 1e-7, \
        f"QFIM routes differ from the eigen-sum by {errs[0]:.2e}, {errs[1]:.2e}"
    return f"eigen-sum differences: pipeline {errs[0]:.2e}, back-rotated SLDs {errs[1]:.2e}"


def check_attainability_wc(rng: np.random.Generator, defective: bool = False) -> str:
    t1, t2 = _random_temps(rng)
    worst = 0.0
    for setup_id in ("swi2", "mz1b_wc", "mz2b_wc"):
        info, _ = evaluate_bounds(make_setup(setup_id), t1, t2)
        residual = info.attainability_residual + (1e-6 if defective else 0.0)
        worst = max(worst, residual)
    assert worst < 1e-8, f"attainability residual {worst:.2e}"
    return f"worst residual {worst:.2e}"


def check_sweep_csv_roundtrip(rng: np.random.Generator, defective: bool = False) -> str:
    spec = SweepSpec("mz2b_wc", grid_n=2)
    records = run_sweep(spec, workers=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        emit_csv(records, path)
        back = read_csv(path)
        if defective:
            back = back[::-1]
        assert back == records, "CSV round trip is not exact"
        again = run_sweep(spec, workers=1)
        assert again == records, "sweep is not deterministic"
    return "2x2 grid, exact round trip"


def check_sweep_pgm_format(rng: np.random.Generator, defective: bool = False) -> str:
    spec = SweepSpec("mz2b_2q", grid_n=3)
    records = run_sweep(spec, workers=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.pgm")
        emit_pgm_heatmap(records, "var_t1", path)
        with open(path, "rb") as handle:
            blob = handle.read()
        head = b"P5\n3 3\n255\n"
        if defective:
            head = b"P5\n4 4\n255\n"
        assert blob.startswith(head), "unexpected PGM header"
        body = np.frombuffer(blob[len(head):], dtype=np.uint8).reshape(3, 3)
        assert (np.diag(body) == 255).all(), "diverging diagonal should render white"
    return "P5 header, white diagonal"


CHECKS = {
    "tensor_partial_trace": check_tensor_partial_trace,
    "tensor_eig_reconstruction": check_tensor_eig_reconstruction,
    "channel_completeness": check_channel_completeness,
    "channel_fixed_point": check_channel_fixed_point,
    "channel_dilation": check_channel_dilation,
    "mz_state_validity": check_mz_state_validity,
    "mz_swap_symmetry": check_mz_swap_symmetry,
    "mz_phase_independence": check_mz_phase_independence,
    "compiled_state_agreement": check_compiled_state_agreement,
    "switch_route_equivalence": check_switch_route_equivalence,
    "switch_choi_cptp": check_switch_choi_cptp,
    "qfi_thermal_qubit": check_qfi_thermal_qubit,
    "qfim_route_agreement": check_qfim_route_agreement,
    "attainability_wc": check_attainability_wc,
    "sweep_csv_roundtrip": check_sweep_csv_roundtrip,
    "sweep_pgm_format": check_sweep_pgm_format,
}


def run_checks(
    names: list[str] | None = None,
    seed: int = 0,
    inject_defect: str | None = None,
) -> list[CheckResult]:
    selected = list(CHECKS) if names is None else names
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ConfigurationError(f"unknown checks: {unknown}; available: {list(CHECKS)}")
    if inject_defect is not None and inject_defect not in CHECKS:
        raise ConfigurationError(f"unknown defect target {inject_defect!r}")
    results = []
    for index, name in enumerate(selected):
        rng = np.random.default_rng([seed, index])
        start = time.perf_counter()
        try:
            detail = CHECKS[name](rng, defective=(name == inject_defect)) or ""
            passed = True
        except (AssertionError, ChannelConstructionError, ValueError) as exc:
            detail = str(exc)
            passed = False
        results.append(CheckResult(name, passed, time.perf_counter() - start, detail))
    return results


def as_report(results: list[CheckResult]) -> dict:
    """Machine-readable summary of a check run."""
    return {
        "passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "seconds": round(r.seconds, 6),
             "detail": r.detail}
            for r in results
        ],
    }


__all__ = ["CHECKS", "CheckResult", "as_report", "run_checks"]
