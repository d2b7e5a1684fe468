"""Every public entry point that takes a natural number refuses anything
else with a ValueError subclass: the one rule of `wormcalc.parsing`, and
most of them with its one refusal, `require_natural`."""

import pytest

from wormcalc.formula import Box, Diamond, Top
from wormcalc.ignatiev import FiniteSubmodel, ModalityOutOfRangeError, Point, UniverseError
from wormcalc.ordinal import OMEGA, ONE, ZERO, Ordinal, from_int, hyperexp
from wormcalc.spectrum import TheoryPresentation
from wormcalc.worm import TOP, Worm, compare_worms, head, ordinal_of, parse_worm, remainder, worm_of_ordinal

NOT_NATURAL = (True, False, -1, 1.0, "1", None)

WORM = parse_worm("1.0")
MODEL = FiniteSubmodel([ZERO, from_int(1)], 1)

# (name, call with the bad value, the error it must raise, its message with
# {!r} where the bad value's repr goes)
ENTRY_POINTS = (
    ("Worm", lambda n: Worm((n,)), ValueError, "letter {!r} must be a natural number"),
    ("Ordinal", lambda n: Ordinal(((ZERO, n),)), ValueError, "coefficient {!r} must be a positive int"),
    ("from_int", from_int, ValueError, "value {!r} must be a natural number"),
    ("hyperexp", lambda n: hyperexp(n, ONE), ValueError, "iteration count {!r} must be a natural number"),
    ("head", lambda n: head(WORM, n), ValueError, "level {!r} must be a natural number"),
    ("remainder", lambda n: remainder(WORM, n), ValueError, "level {!r} must be a natural number"),
    ("ordinal_of", lambda n: ordinal_of(WORM, n), ValueError, "level {!r} must be a natural number"),
    ("worm_of_ordinal", lambda n: worm_of_ordinal(OMEGA, n), ValueError, "level {!r} must be a natural number"),
    ("compare_worms", lambda n: compare_worms(WORM, TOP, n), ValueError, "level {!r} must be a natural number"),
    ("Box", lambda n: Box(n, Top()), ValueError, "modal index {!r} must be a natural number"),
    ("Diamond", lambda n: Diamond(n, Top()), ValueError, "modal index {!r} must be a natural number"),
    ("FiniteSubmodel", lambda n: FiniteSubmodel([ZERO], n), UniverseError, "max index {!r} must be a natural number"),
    ("Point.coord", Point.of([ZERO]).coord, ValueError, "coordinate {!r} must be a natural number"),
    (
        "successors",
        lambda n: MODEL.successors(n, Point.of([ZERO])),
        ModalityOutOfRangeError,
        "relation {!r} is outside 0..1",
    ),
    ("edges", MODEL.edges, ModalityOutOfRangeError, "relation {!r} is outside 0..1"),
    ("edge_count", MODEL.edge_count, ModalityOutOfRangeError, "relation {!r} is outside 0..1"),
    (
        "TheoryPresentation",
        lambda n: TheoryPresentation(((n, TOP),)),
        ValueError,
        "entry ({!r}, Worm('T')) must pair a natural level with a Worm",
    ),
    (
        "TheoryPresentation.of",
        lambda n: TheoryPresentation.of({n: TOP}),
        ValueError,
        "entry ({!r}, Worm('T')) must pair a natural level with a Worm",
    ),
)

# the entry points whose refusal is the one of `parsing.require_natural`;
# the rest keep their own typed errors and messages
REQUIRE_NATURAL = {
    "Worm", "from_int", "hyperexp", "head", "remainder", "ordinal_of", "worm_of_ordinal",
    "compare_worms", "Box", "Diamond", "Point.coord",
}


@pytest.mark.parametrize("name, call, error, message", ENTRY_POINTS, ids=[entry[0] for entry in ENTRY_POINTS])
def test_entry_points_refuse_values_that_are_not_naturals(name, call, error, message):
    # False and the 1-likes used to pass as 0 and 1 at several of these, and
    # a float or a string reached a comparison and raised a bare TypeError
    for value in NOT_NATURAL:
        with pytest.raises(error) as caught:
            call(value)
        # the message names the argument and shows the bad value's repr
        assert type(caught.value) is error
        assert str(caught.value) == message.format(value)
        assert (caught.traceback[-1].name == "require_natural") == (name in REQUIRE_NATURAL)
    # the same entry points take a natural (the coefficient of an ordinal
    # must also be nonzero)
    call(1)
