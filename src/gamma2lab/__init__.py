"""Exact desk-scale laboratory for two-body reduced operators of fermionic
states: canonical pair forms, pairing trial states, and eigenvalue bounds.

Every function is imported from its module (``gamma2lab.bounds``,
``gamma2lab.canonical``, ``gamma2lab.fock``, ``gamma2lab.pairing``,
``gamma2lab.rdm``, ``gamma2lab.cli``); the package itself binds only
``__version__``."""

__version__ = "0.1.0"
