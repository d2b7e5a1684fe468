"""Worm calculus for polymodal provability logic.

Exact ordinal arithmetic below epsilon_0, worms as ordinal notations,
closed modal formulas, the universal Kripke model for the closed fragment,
and theory spectra built from unions of consistency progressions.
"""

from .formula import (
    Bottom,
    Box,
    Diamond,
    Formula,
    Implies,
    Top,
    formula_of_worm,
    parse_formula,
    print_formula,
)
from .ignatiev import (
    FiniteSubmodel,
    ForcingResult,
    Point,
    enumerate_submodel,
    first_violation,
    forces,
    forces_worm,
    is_valid_point,
    min_point_for_worm,
    parse_point,
    print_point,
    render_dot,
    validity_check,
)
from .ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    compare,
    from_int,
    hyperexp,
    last_exponent,
    omega_power,
    parse_ordinal,
    print_ordinal,
)
from .parsing import ParseError
from .spectrum import (
    LimitTheory,
    Spectrum,
    TheoryPresentation,
    conservation_level,
    normalize,
    registry,
)
from .worm import (
    TOP,
    Worm,
    compare_worms,
    head,
    ordinal_of,
    parse_worm,
    print_worm,
    remainder,
    worm_of_ordinal,
)

__version__ = "0.1.0"
