"""gaplab: a verification laboratory for spectral-gap and operator-norm
estimates on residue rings, spheres, and rank-two chamber geometry.

Submodules are importable directly; the most commonly used names are
re-exported here.  The library keeps what a command, a benchmark workload
or an acceptance criterion uses.  A paper check that no criterion states
lives in the tests, next to the tests that check it.
"""

from .residue import (AdditiveCharacter, CharacterClass, ResidueRing,
                      RingElem, char_eval, character_decompose,
                      classify_character, valuation)
from .finite_models import (NormReport, StampOperator, hausdorff_young_ratio,
                            operator_norm, stamp_s_chi, stamp_s_delta,
                            verify_S_decomposition)
from .spheres import (TdeltaGapReport, spin_half_gap, stheta_norm_gap,
                      tdelta_gap_report)
from .cartan import (CartanTriple, PAdicGroupElement, RealGroupElement,
                     SphereDistortion, kak_padic, kak_real,
                     padic_sphere_distortion, solve_sphere_distortion)
from .zigzag import (CertificateBlock, StarParams, product_params,
                     rescale_params, revalidate_certificate,
                     zigzag_certificate)
from .twostep import (FiniteGroupModel, FiniteMeasure, GapProfile, StarReport,
                      convolution_powers, cyclic_model, sandwich_twostep,
                      sl3_f2_model, spectral_gap_profile, verify_star_instance)
from .induction import (CocycleResult, CuspFit, DomainStats, LatticeMeasure,
                        SiegelPoint, cocycle, cocycle_growth_check,
                        cusp_decay_fit, domain_matrices, element_length,
                        pushforward_mn0, sample_domain, total_variation,
                        truncate_tail)

__all__ = [
    "AdditiveCharacter", "CharacterClass", "ResidueRing", "RingElem",
    "char_eval", "character_decompose", "classify_character", "valuation",
    "NormReport", "StampOperator", "hausdorff_young_ratio", "operator_norm",
    "stamp_s_chi", "stamp_s_delta", "verify_S_decomposition",
    "TdeltaGapReport", "spin_half_gap", "stheta_norm_gap",
    "tdelta_gap_report",
    "CartanTriple", "PAdicGroupElement", "RealGroupElement",
    "SphereDistortion", "kak_padic", "kak_real",
    "padic_sphere_distortion", "solve_sphere_distortion",
    "CertificateBlock", "StarParams", "product_params", "rescale_params",
    "revalidate_certificate", "zigzag_certificate",
    "FiniteGroupModel", "FiniteMeasure", "GapProfile", "StarReport",
    "convolution_powers", "cyclic_model", "sandwich_twostep", "sl3_f2_model",
    "spectral_gap_profile", "verify_star_instance",
    "CocycleResult", "CuspFit", "DomainStats", "LatticeMeasure",
    "SiegelPoint", "cocycle", "cocycle_growth_check", "cusp_decay_fit",
    "domain_matrices", "element_length", "pushforward_mn0", "sample_domain",
    "total_variation", "truncate_tail",
]

__version__ = "0.1.0"
