"""Polar coding and private-capacity simulation for quantum relay channels.

Its modules cover dense quantum state/channel arithmetic (``density_ops``),
classical polar coding machinery (``polar_core``), the amplitude/phase
codeword-set algebra (``codeword_sets``), relay capacity formulas and
encoder simulation (``relay``), the switch-channel construction that
makes the relay encoder deterministic (``superactivation``), and a
config-driven experiment runner (``cli``).
"""

__version__ = "0.1.0"
