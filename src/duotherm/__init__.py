"""Quantum-limited simultaneous estimation of two bath temperatures.

The package builds interferometer and superposed-channel-order thermometer
setups, computes the quantum Fisher information matrix of their output
states, and turns it into saturable variance bounds over temperature grids.
"""
from .errors import (ChannelConstructionError, ConfigurationError, DarkPortError,
                     DimensionMismatchError, DuothermError, ValidationError)
from .estimation import DerivativeConfig, evaluate_bounds
from .setups import SETUP_IDS, make_setup
from .sweep import (HEATMAP_FIELDS, SweepSpec, emit_csv, emit_pgm_heatmap, read_csv,
                    run_sweep, summarize_ranges)
from .validate import CHECKS, as_report, run_checks

__version__ = "0.1.0"

__all__ = [
    "CHECKS", "ChannelConstructionError", "ConfigurationError", "DarkPortError",
    "DerivativeConfig", "DimensionMismatchError", "DuothermError", "HEATMAP_FIELDS",
    "SETUP_IDS", "SweepSpec", "ValidationError", "as_report", "emit_csv",
    "emit_pgm_heatmap", "evaluate_bounds", "make_setup", "read_csv", "run_checks",
    "run_sweep", "summarize_ranges",
]
