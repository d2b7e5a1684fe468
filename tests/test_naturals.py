"""Every public entry point that takes a natural number refuses anything
else with a ValueError subclass: the one rule of `wormcalc.parsing`."""

import pytest

from wormcalc.formula import Box, Diamond, Top
from wormcalc.ignatiev import FiniteSubmodel, ModalityOutOfRangeError, Point, UniverseError
from wormcalc.ordinal import OMEGA, ONE, ZERO, Ordinal, from_int, hyperexp
from wormcalc.spectrum import TheoryPresentation
from wormcalc.worm import TOP, Worm, compare_worms, head, ordinal_of, parse_worm, remainder, worm_of_ordinal

NOT_NATURAL = (True, False, -1, 1.0, "1", None)

WORM = parse_worm("1.0")
MODEL = FiniteSubmodel([ZERO, from_int(1)], 1)

# (name, call with the bad value, the error it must raise)
ENTRY_POINTS = (
    ("Worm", lambda n: Worm((n,)), ValueError),
    ("Ordinal", lambda n: Ordinal(((ZERO, n),)), ValueError),
    ("from_int", from_int, ValueError),
    ("hyperexp", lambda n: hyperexp(n, ONE), ValueError),
    ("head", lambda n: head(WORM, n), ValueError),
    ("remainder", lambda n: remainder(WORM, n), ValueError),
    ("ordinal_of", lambda n: ordinal_of(WORM, n), ValueError),
    ("worm_of_ordinal", lambda n: worm_of_ordinal(OMEGA, n), ValueError),
    ("compare_worms", lambda n: compare_worms(WORM, TOP, n), ValueError),
    ("Box", lambda n: Box(n, Top()), ValueError),
    ("Diamond", lambda n: Diamond(n, Top()), ValueError),
    ("FiniteSubmodel", lambda n: FiniteSubmodel([ZERO], n), UniverseError),
    ("Point.coord", Point.of([ZERO]).coord, ValueError),
    ("successors", lambda n: MODEL.successors(n, Point.of([ZERO])), ModalityOutOfRangeError),
    ("edges", MODEL.edges, ModalityOutOfRangeError),
    ("edge_count", MODEL.edge_count, ModalityOutOfRangeError),
    ("TheoryPresentation", lambda n: TheoryPresentation(((n, TOP),)), ValueError),
    ("TheoryPresentation.of", lambda n: TheoryPresentation.of({n: TOP}), ValueError),
)


@pytest.mark.parametrize("name, call, error", ENTRY_POINTS, ids=[entry[0] for entry in ENTRY_POINTS])
def test_entry_points_refuse_values_that_are_not_naturals(name, call, error):
    # False and the 1-likes used to pass as 0 and 1 at several of these, and
    # a float or a string reached a comparison and raised a bare TypeError
    for value in NOT_NATURAL:
        with pytest.raises(error):
            call(value)
    # the same entry points take a natural (the coefficient of an ordinal
    # must also be nonzero)
    call(1)
