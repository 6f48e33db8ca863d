"""Exact desk-scale laboratory for two-body reduced operators of fermionic
states: canonical pair forms, pairing trial states, and eigenvalue bounds."""

__version__ = "0.1.0"

from .bounds import (TheoremReport, counterexample_driver, counterexample_sweep,
                     eigenvector_occupation_check, explore_conjecture,
                     norm_recursion_check, proposition_gap, sup_over_states,
                     theorem1_rhs, theorem2_floor, verify_theorem1,
                     verify_theorem2)
from .canonical import (AntisymmetricTensor, CanonicalForm,
                        canonical_from_lambdas, correlation_measures,
                        elementary_wedge, embed_as_sector_vector, random_tensor,
                        read_tensor_text, reconstruct, tensor_inner,
                        write_tensor_text, youla_decompose)
from .fock import (SectorBasis, SectorMismatchError, SectorSizeError,
                   SectorVector, apply_annihilate, apply_annihilate_vector,
                   apply_create, basis_state, enumerate_sector, occupations,
                   slater_state, vacuum_state)
from .pairing import (PairingState, PairOperator, annihilation_identity_check,
                      apply_B, apply_B_star, build_pairing_state,
                      commutator_defect, norm_sq_oracle)
from .rdm import (SpectralData, TwoBodyOperator, compute_gamma2, expectation,
                  expectation_fast, spectral_decompose)

__all__ = [name for name in dir() if not name.startswith("_")]
