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
    certify_sign,
    certify_monotone,
    find_a_c,
    find_x_p,
)

__version__ = "0.1.0"

# Served on first use (PEP 562): importing the package loads no check.
_INEQUALITIES = (
    "InequalityReport", "check_sum_bounds", "check_weighted_sum",
    "check_product_pair", "check_mean_chain", "check_mean_chain_pairs",
    "check_k_envelope", "check_gamma_constant_identities",
)

__all__ = [
    "DomainError", "ConvergenceError",
    "ellip_k", "ellip_e", "hyp2f1", "legendre_residual",
    "f", "u_aux", "v_aux", "delta_aux",
    "w_plus", "w_minus", "g_factor", "phi", "recip_f_second_sign",
    "h", "g_aux", "log_h_second_factor", "j_factor", "l_factor",
    "ScanConfig", "SignCertificate", "ExtremumResult",
    "InconclusiveScanError",
    "certify_sign", "certify_monotone", "find_a_c", "find_x_p",
    *_INEQUALITIES,
]


def __getattr__(name: str):
    if name in _INEQUALITIES:
        from . import inequalities
        return getattr(inequalities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_INEQUALITIES})
