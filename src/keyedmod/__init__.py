"""Keyed constellation mapping, mismatched demodulation, and secrecy analytics.

Subpackages by role: :mod:`keyedmod.constellations` (schemes and keys),
:mod:`keyedmod.modem` (modulation and nearest-point decoding),
:mod:`keyedmod.channel` (AWGN and path loss), :mod:`keyedmod.analytic`
(closed-form decode probabilities with a numeric oracle),
:mod:`keyedmod.secrecy` (keyspace, unicity, perfect secrecy, permanent),
and :mod:`keyedmod.experiment` (Monte Carlo sweeps and persistence).
"""

from .channel import ChannelSpec, PathLossModel, add_awgn, snr_at_distance
from .constellations import (
    ConstellationScheme,
    MappingKey,
    STANDARD_SCHEME_NAMES,
    make_keyed_scheme,
    make_standard_scheme,
    parse_key,
    random_key,
    serialize_key,
)
from .modem import cross_decode_bits, modulate
from .experiment import (
    BerRecord,
    ExperimentConfig,
    ReceiverSpec,
    emit_figure_data,
    load_config,
    read_results,
    run_experiment,
    scenario_config,
    write_results,
)

__version__ = "0.7.0"

__all__ = [
    "ChannelSpec",
    "PathLossModel",
    "add_awgn",
    "snr_at_distance",
    "ConstellationScheme",
    "MappingKey",
    "STANDARD_SCHEME_NAMES",
    "make_keyed_scheme",
    "make_standard_scheme",
    "parse_key",
    "random_key",
    "serialize_key",
    "cross_decode_bits",
    "modulate",
    "BerRecord",
    "ExperimentConfig",
    "ReceiverSpec",
    "emit_figure_data",
    "load_config",
    "read_results",
    "run_experiment",
    "scenario_config",
    "write_results",
    "__version__",
]
