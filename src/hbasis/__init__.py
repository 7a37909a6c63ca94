"""Additive h-basis toolkit: construction, verification, bounds, exact search."""

__version__ = "0.1.0"

from .bounds import (bose_chowla_lower, hammerer_hofmeister, hofmeister_lower,
                     improved_quadratic, rohrbach, rohrbach_quadratic,
                     zeta_upper_hofmeister, zeta_upper_theorem1)
from .construct import (ConstructionPlan, ConstructionResult, build_theorem1,
                        decompose, digit_basis, plan_params, tau)
from .cover import (ComplementFamily, complement_size_bound, greedy_shift_cover,
                    k_complement)
from .search import SearchResult, extremal_n, oracle_exhaustive, zeta_exact
from .sidon import FieldSpec, SidonSet, bose_chowla, is_bk
from .sumset import (BasisSet, Certificate, ResidueSet, n_of, residue_sumset,
                     verify_basis)

__all__ = [
    "BasisSet", "Certificate", "ResidueSet",
    "n_of", "verify_basis", "residue_sumset",
    "FieldSpec", "SidonSet", "bose_chowla", "is_bk",
    "ComplementFamily", "greedy_shift_cover", "k_complement", "complement_size_bound",
    "ConstructionPlan", "ConstructionResult", "tau", "plan_params",
    "digit_basis", "build_theorem1", "decompose",
    "rohrbach", "rohrbach_quadratic", "hammerer_hofmeister", "improved_quadratic",
    "hofmeister_lower", "zeta_upper_hofmeister", "zeta_upper_theorem1",
    "bose_chowla_lower",
    "SearchResult", "extremal_n", "oracle_exhaustive", "zeta_exact",
    "__version__",
]
