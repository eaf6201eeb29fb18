"""Keyed constellation mapping, mismatched demodulation, and secrecy analytics.

Import each name from its module: :mod:`keyedmod.constellations` (schemes
and keys), :mod:`keyedmod.modem` (modulation and nearest-point decoding),
:mod:`keyedmod.channel` (AWGN and path loss), :mod:`keyedmod.analytic`
(closed-form decode probabilities with a numeric oracle),
:mod:`keyedmod.secrecy` (keyspace, unicity, perfect secrecy, permanent),
and :mod:`keyedmod.experiment` (Monte Carlo sweeps and persistence).
"""

__version__ = "0.25.0"
