"""ellipcert: complete elliptic integrals, their convexity function zoo,
and numerical certification of the associated sharp constants and
inequalities."""

from .specfun import (
    DomainError,
    ConvergenceError,
    ellip_k,
    ellip_e,
    hyp2f1,
    legendre_residual,
)
from .family import (
    CriticalConstants,
    f,
    u_aux,
    v_aux,
    delta_aux,
    w_plus,
    w_minus,
    g_factor,
    phi,
    recip_f_second_sign,
    h,
    g_aux,
    log_h_second_factor,
    j_factor,
    l_factor,
)
from .certify import (
    ScanConfig,
    SignCertificate,
    ExtremumResult,
    InconclusiveScanError,
    BracketNotFoundError,
    certify_sign,
    certify_monotone,
    find_a_c,
    find_x_p,
)
from .inequalities import (
    InequalityReport,
    check_sum_bounds,
    check_weighted_sum,
    check_product_pair,
    check_mean_chain,
    check_mean_chain_pairs,
    check_k_envelope,
    check_gamma_constant_identities,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "ConvergenceError",
    "ellip_k", "ellip_e", "hyp2f1", "legendre_residual",
    "CriticalConstants", "f", "u_aux", "v_aux", "delta_aux",
    "w_plus", "w_minus", "g_factor", "phi", "recip_f_second_sign",
    "h", "g_aux", "log_h_second_factor", "j_factor", "l_factor",
    "ScanConfig", "SignCertificate", "ExtremumResult",
    "InconclusiveScanError", "BracketNotFoundError",
    "certify_sign", "certify_monotone", "find_a_c", "find_x_p",
    "InequalityReport", "check_sum_bounds", "check_weighted_sum",
    "check_product_pair", "check_mean_chain", "check_mean_chain_pairs",
    "check_k_envelope", "check_gamma_constant_identities",
]
