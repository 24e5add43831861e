"""Exact Drinfeld-twist quantizations of Witt-type Lie algebras.

The package constructs, over exact coefficient rings, the twist-deformed
Hopf structures on U(W) in characteristic 0 and on the restricted enveloping
algebra of the Jacobson-Witt algebra W(n;1) in characteristic p, and ships an
executable verification suite for the identities these constructions rest on.
"""

from .liealg import (
    BasisDeriv,
    JacobsonWitt,
    LieElement,
    RMatrixData,
    WittAlgebra,
    WPlusAlgebra,
    pairing,
)
from .rings import QQ, binom_int, gf, t_quotient, t_series
from .twist import (
    BasicDirection,
    QuantizedHopf,
    RMatrixDirection,
    TwistElement,
    TwistorPair,
    basic_coefficient,
    char0_general,
    integral_eta,
    modular,
    modular_unrestricted,
)
from .uea import EnvelopingAlgebra, TensorElement, UEAElement
from .grammar import ElementSyntaxError, format_element, parse_element
from .verify import (
    Char0Config,
    CheckReport,
    CheckResult,
    ModularConfig,
    check_commutation_suite,
    check_dimensions_radford,
    check_factorial_identities,
    check_hopf_axioms,
    check_modular_reduction,
    check_restricted_structure,
    check_twist_laws,
    run_suites,
)

__version__ = "0.1.0"
