"""Trigonometric BC_n Sutherland system, its rational RSvD dual, and the
explicit action-angle duality between them, with numerical verification."""

from .params import (CouplingParams, DualPoint, OscillatorPoint,
                     SutherlandPoint, angles_from_z, couplings_from_rsvd,
                     couplings_from_sutherland, domain_membership,
                     lambda_of_z, strongly_regular, z_from_angles)
from .matkernel import (PairedSpectrum, StructuredMatrix,
                        cartan_decompose_gminus, exchange_matrix, gamma_split,
                        jacobi_minor_residual, pair_diagonalize_gminus,
                        structure_residual)
from .sutherland import (action_map, closed_form_H1, grad_H1, hamiltonians,
                         lax_Y, momentum_residual)
from .rsvd import (A_check, A_tilde, DualFrame, F_squared_branches, L_tilde,
                   dual_H0, dual_Hk, f_vector, g_functions, grad_dual_H0,
                   h_matrix, m_of_theta, w_system_residual)
from .duality import (DUAL_PAIRING, backward_map, canonicity_residual,
                      forward_map, invariant_crosscheck, rank_of_dlambda,
                      round_trip_report, superintegrability_data)
from .dynamics import (FlowSpec, Trajectory, angle_linearity_check, integrate,
                       poisson_bracket_fd)
from .verification import SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "CouplingParams", "DualPoint", "OscillatorPoint", "SutherlandPoint",
    "angles_from_z", "couplings_from_rsvd", "couplings_from_sutherland",
    "domain_membership", "lambda_of_z", "strongly_regular", "z_from_angles",
    "PairedSpectrum", "StructuredMatrix", "cartan_decompose_gminus",
    "exchange_matrix", "gamma_split", "jacobi_minor_residual",
    "pair_diagonalize_gminus", "structure_residual",
    "action_map", "closed_form_H1", "grad_H1", "hamiltonians", "lax_Y",
    "momentum_residual",
    "A_check", "A_tilde", "DualFrame", "F_squared_branches", "L_tilde",
    "dual_H0", "dual_Hk", "f_vector", "g_functions", "grad_dual_H0",
    "h_matrix", "m_of_theta", "w_system_residual",
    "DUAL_PAIRING", "backward_map", "canonicity_residual",
    "forward_map", "invariant_crosscheck", "rank_of_dlambda",
    "round_trip_report", "superintegrability_data",
    "FlowSpec", "Trajectory", "angle_linearity_check", "integrate",
    "poisson_bracket_fd",
    "SuiteConfig", "SuiteReport", "run_suite",
]
