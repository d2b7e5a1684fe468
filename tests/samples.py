"""Exhaustive sample families, hypothesis strategies and the helpers and
fixtures shared by the tests.

The exhaustive families are deterministic and sized to keep the whole suite
well under a minute; the knobs are module constants so individual tests can
state which family they sweep. The helpers below the families are worm
operations, the definitional relation and an axiom fixture that only the
tests need, so the package does not carry them.
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key, lru_cache

from hypothesis import strategies as st

from wormcalc.formula import (
    Bottom, Box, Diamond, Formula, Implies, Top, conj, disj, formula_of_worm, neg
)
from wormcalc.ignatiev import Point, least_world
from wormcalc.ordinal import (
    ONE, ZERO, Ordinal, add, compare, from_int, hyperexp, last_exponent, omega_power, print_ordinal
)
from wormcalc.parsing import Cursor, ParseError
from wormcalc.spectrum import Spectrum, TheoryPresentation
from wormcalc.worm import Worm, ordinal_of, print_worm, worm_of_ordinal

MAX_COEFF = 4


def all_worms(max_len: int, max_letter: int) -> list[Worm]:
    """Every worm up to the given length over letters 0..max_letter."""
    out = []
    for length in range(max_len + 1):
        for letters in itertools.product(range(max_letter + 1), repeat=length):
            out.append(Worm(letters))
    return out


def presentation_family():
    """The 83,130-member acceptance family of presentations, in a fixed order.

    Every level assignment on levels 0..3 over the worms of length <= 2 and
    letters <= 2 (14**4); one entry at a level 0..3 over the worms of
    length <= 4 and letters <= 3; then two entries at levels low < high
    <= 3, each over the worms of length <= 3 and letters <= 3.
    """
    short = all_worms(2, 2)
    options = [None] + short
    for picks in itertools.product(options, repeat=4):
        entries = {n: w for n, w in enumerate(picks) if w is not None}
        yield TheoryPresentation.of(entries)
    for n in range(4):
        for a in all_worms(4, 3):
            yield TheoryPresentation.of({n: a})
    medium = all_worms(3, 3)
    for low, high in itertools.combinations(range(4), 2):
        for a, b in itertools.product(medium, repeat=2):
            yield TheoryPresentation.of({low: a, high: b})


def _layer(exponents: list[Ordinal], max_terms: int = 2) -> list[Ordinal]:
    """All canonical ordinals with up to max_terms terms over the exponents."""
    decreasing = sorted(exponents, key=cmp_to_key(compare), reverse=True)
    out = []
    for k in range(1, max_terms + 1):
        for combo in itertools.combinations(decreasing, k):
            for coeffs in itertools.product(range(1, MAX_COEFF + 1), repeat=k):
                out.append(Ordinal(tuple(zip(combo, coeffs))))
    return out


def ordinal_sample() -> list[Ordinal]:
    """A deterministic family through nesting depth 3, coefficients <= 4.

    Finite ordinals up to 4; everything with two CNF terms over those
    exponents; a capped slice one depth higher; and a few depth-3 powers.
    Roughly seven hundred distinct values.
    """
    finite = [from_int(i) for i in range(MAX_COEFF + 1)]
    depth1 = _layer(finite)
    slice1 = sorted(set(depth1), key=cmp_to_key(compare))[:8]
    depth2 = _layer(slice1)
    slice2 = sorted(set(depth2), key=cmp_to_key(compare))[-6:]
    depth3 = _layer(slice2, max_terms=1)[:40]
    seen = []
    unique = set()
    for x in [ZERO] + finite + depth1 + depth2 + depth3:
        if x not in unique:
            unique.add(x)
            seen.append(x)
    return seen


def worms(max_letter: int = 3, max_len: int = 6):
    return st.lists(
        st.integers(min_value=0, max_value=max_letter), max_size=max_len
    ).map(lambda letters: Worm(tuple(letters)))


def ordinals(depth: int = 2):
    if depth == 0:
        return st.integers(min_value=0, max_value=4).map(from_int)
    return st.lists(
        st.tuples(ordinals(depth - 1), st.integers(1, MAX_COEFF)), max_size=3
    ).map(_canonical)


def _canonical(pairs: list[tuple[Ordinal, int]]) -> Ordinal:
    merged: dict[Ordinal, int] = {}
    for exponent, coefficient in pairs:
        merged[exponent] = merged.get(exponent, 0) + coefficient
    ordered = sorted(merged, key=cmp_to_key(compare), reverse=True)
    return Ordinal(tuple((e, merged[e]) for e in ordered))


# --- helpers the tests share ---------------------------------------------


def promote(a: Worm, n: int) -> Worm:
    """Shift every letter up by n."""
    return Worm(tuple(letter + n for letter in a.letters))


def concat(a: Worm, b: Worm) -> Worm:
    return Worm(a.letters + b.letters)


def in_worms(a: Worm, n: int) -> bool:
    """Membership in the level-n fragment: every letter at least n."""
    return all(letter >= n for letter in a.letters)


def parse_outcome(parser, text: str):
    """What a parser makes of text: its value, or its error's text and position."""
    try:
        return parser(text)
    except ParseError as error:
        return (str(error), error.position)


def cursor_parse_worm(text: str) -> Worm:
    """The worm grammar read by a Cursor scan, one letter at a time. An
    oracle for `parse_worm`, which splits the dot form on "." instead."""
    cur = Cursor(text.strip())
    if cur.try_eat("T"):
        cur.expect_end()
        return Worm()
    if cur.peek() == "<":
        letters = []
        while cur.try_eat("<"):
            letters.append(_cursor_index(cur))
            cur.expect(">")
        cur.expect("T")
        cur.expect_end()
        return Worm(tuple(letters))
    letters = [_cursor_index(cur)]
    while cur.try_eat("."):
        letters.append(_cursor_index(cur))
    cur.expect_end()
    return Worm(tuple(letters))


def _cursor_index(cur: Cursor) -> int:
    pos = cur.pos
    value = cur.natural()
    if cur.pos - pos > 1 and cur.text[pos] == "0":
        raise ParseError("indices may not have leading zeros", pos)
    return value


def cursor_parse_ordinal(text: str) -> Ordinal:
    """The ordinal grammar read with an atom/factor split, each term checked
    against and appended to the sum built so far. An oracle for
    `parse_ordinal`, which reads every term first and builds the sum once."""
    cur = Cursor(text.strip())
    value = _cursor_ordinal(cur)
    cur.expect_end()
    return value


def _cursor_ordinal(cur: Cursor) -> Ordinal:
    if cur.peek() == "0":
        mark = cur.pos
        cur.pos += 1
        if cur.at_digit():
            raise ParseError("numbers may not have leading zeros", mark)
        return ZERO
    parsed = [_cursor_term(cur)]
    while cur.try_eat("+"):
        parsed.append(_cursor_term(cur))
    result = Ordinal((parsed[0][0],))
    for term, pos in parsed[1:]:
        if compare(term[0], result.terms[-1][0]) >= 0:
            raise ParseError("non-canonical form: exponents must strictly decrease", pos)
        result = Ordinal(result.terms + (term,))
    return result


def _cursor_term(cur: Cursor) -> tuple[tuple[Ordinal, int], int]:
    pos = cur.pos
    atom, is_numeral = _cursor_atom(cur)
    if cur.try_eat("*") or cur.try_eat("·"):
        if is_numeral:
            raise ParseError("a coefficient may only follow a w-power", cur.pos - 1)
        coefficient = _cursor_nonzero_nat(cur)
        return ((atom, coefficient), pos)
    if is_numeral:
        # a bare numeral n is the term w^0 * n
        return ((ZERO, atom), pos)
    return ((atom, 1), pos)


def _cursor_atom(cur: Cursor):
    """Returns (exponent Ordinal, False) for a w-power, or (int, True) for a numeral."""
    if cur.at_digit():
        return _cursor_nonzero_nat(cur), True
    if cur.try_eat("w") or cur.try_eat("ω"):
        if cur.try_eat("^"):
            return _cursor_factor(cur), False
        return ONE, False
    raise cur.error("expected a term (number, 'w' or 'w^...')")


def _cursor_factor(cur: Cursor) -> Ordinal:
    if cur.try_eat("("):
        inner = _cursor_ordinal(cur)
        cur.expect(")")
        return inner
    atom, is_numeral = _cursor_atom(cur)
    if is_numeral:
        return from_int(atom)
    return omega_power(atom)


def _cursor_nonzero_nat(cur: Cursor) -> int:
    pos = cur.pos
    value = cur.natural()
    if value == 0:
        raise ParseError("zero is not allowed here", pos)
    if cur.text[pos] == "0":
        raise ParseError("numbers may not have leading zeros", pos)
    return value


def cursor_parse_formula(text: str) -> Formula:
    """The formula grammar read by one function per precedence level, each
    trying its connective with `try_eat`, and an atom reader that tries each
    prefix in turn. An oracle for `parse_formula`, which reads the infix
    connectives in one precedence-climbing loop."""
    cur = Cursor(text)
    f = _cursor_implies(cur)
    cur.skip_ws()
    cur.expect_end()
    return f


def _cursor_implies(cur: Cursor) -> Formula:
    left = _cursor_or(cur)
    cur.skip_ws()
    if cur.try_eat("->"):
        return Implies(left, _cursor_implies(cur))
    return left


def _cursor_or(cur: Cursor) -> Formula:
    f = _cursor_and(cur)
    while True:
        cur.skip_ws()
        if cur.try_eat("|"):
            f = disj(f, _cursor_and(cur))
        else:
            return f


def _cursor_and(cur: Cursor) -> Formula:
    f = _cursor_unary(cur)
    while True:
        cur.skip_ws()
        if cur.try_eat("&"):
            f = conj(f, _cursor_unary(cur))
        else:
            return f


def _cursor_unary(cur: Cursor) -> Formula:
    cur.skip_ws()
    if cur.try_eat("~"):
        return neg(_cursor_unary(cur))
    if cur.try_eat("["):
        n = _cursor_index(cur)
        cur.expect("]")
        return Box(n, _cursor_unary(cur))
    if cur.try_eat("<"):
        n = _cursor_index(cur)
        cur.expect(">")
        return Diamond(n, _cursor_unary(cur))
    if cur.try_eat("T"):
        return Top()
    if cur.try_eat("F"):
        return Bottom()
    if cur.try_eat("("):
        f = _cursor_implies(cur)
        cur.skip_ws()
        cur.expect(")")
        return f
    raise cur.error("expected a formula")


def recursive_compare(a: Ordinal, b: Ordinal) -> int:
    """The CNF order read off the terms: -1, 0 or 1.

    Lexicographic on the term lists, comparing exponents (recursively)
    before coefficients; a proper prefix is smaller. An oracle for the
    order keys behind `compare`.
    """
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = recursive_compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def recursive_ranks(letters: tuple[int, ...]) -> tuple[Ordinal, ...]:
    """A worm's rank at levels 0 .. max letter + 1, each level on its own.

    Level n ranks the leading block of letters >= n by the recursion on
    the block: split at every letter n, or, when the smallest letter m is
    above n, take the rank at level m up m - n hyperexponentials. An oracle
    for the one top-down sweep `_ranks`; it recurses once per level jump
    and rebuilds each level's tower, so it is quadratic in the top letter.
    """
    top = max(letters) + 1 if letters else 0
    ranks = []
    for n in range(top + 1):
        cut = 0
        while cut < len(letters) and letters[cut] >= n:
            cut += 1
        ranks.append(_recursive_rank(letters[:cut], n))
    return tuple(ranks)


@lru_cache(maxsize=None)
def _recursive_rank(letters: tuple[int, ...], base: int) -> Ordinal:
    # every letter is >= base, and base plays the part of the letter 0
    if not letters:
        return ZERO
    m = min(letters)
    if m > base:
        return hyperexp(m - base, _recursive_rank(letters, m))
    blocks, start = [], 0
    for i, letter in enumerate(letters):
        if letter == base:
            blocks.append(letters[start:i])
            start = i + 1
    value = _recursive_rank(letters[start:], base)
    for block in reversed(blocks):
        value = add(add(value, ONE), _recursive_rank(block, base))
    return value


def check_invariants(a: Ordinal) -> None:
    """Deep re-validation of a Cantor normal form; raises on any violation."""
    if not isinstance(a, Ordinal):
        raise TypeError(f"{a!r} is not an Ordinal")
    for i, (exponent, coefficient) in enumerate(a.terms):
        check_invariants(exponent)
        if not isinstance(coefficient, int) or coefficient < 1:
            raise ValueError(f"bad coefficient {coefficient!r} in {a!r}")
        if i > 0 and recursive_compare(a.terms[i - 1][0], exponent) <= 0:
            raise ValueError(f"exponents not strictly decreasing in {a!r}")


def normalize_oracle(t: TheoryPresentation) -> Spectrum:
    """Normalization through a level -> rank dict: every level up to the
    highest nonzero rank gets a coordinate, and `Point.of` trims the
    result. An oracle for `normalize`, which ranks straight into the
    coordinate list and builds the point as it stands."""
    ranks = {n: ordinal_of(w, n) for n, w in t.entries}
    top = max((n for n, x in ranks.items() if not x.is_zero), default=0)
    coords = [ranks.get(n, ZERO) for n in range(top + 1)]
    for n in range(top - 1, -1, -1):
        if compare(coords[n + 1], last_exponent(coords[n])) > 0:
            coords[n] = add(coords[n], omega_power(coords[n + 1]))
    return Spectrum.of_point(Point.of(coords))


def spectrum_json_oracle(s: Spectrum) -> dict:
    """A spectrum's JSON through one `Worm` per coordinate and `print_worm`.
    An oracle for `Spectrum.to_json`, which prints the canonical letters."""
    p = s.point
    return {
        "coords": [print_ordinal(c) for c in p.coords],
        "worms": [print_worm(worm_of_ordinal(p.coord(n), n)) for n in range(p.support)],
    }


def relation_holds(n: int, p: Point, q: Point) -> bool:
    """p sees q through relation n: coordinates below n agree, coordinate n drops."""
    for i in range(n):
        if p.coord(i) != q.coord(i):
            return False
    return compare(p.coord(n), q.coord(n)) > 0


def rank_criterion(p: Point, a: Worm) -> bool:
    """The coordinatewise rank criterion with every rank taken afresh: worm a
    holds at p iff ordinal_of(a, n) <= coordinate n for every level n up to
    the worm's max letter + 1. An oracle for `forces_worm`, which takes the
    ranks once per worm and compares order keys."""
    top = (max(a.letters) + 1) if a.letters else 0
    return all(compare(ordinal_of(a, n), p.coord(n)) <= 0 for n in range(top + 1))


def axiom_instances(worm_pool: list[Worm], max_index: int) -> list[Formula]:
    """Instances of the five axiom schemata over a pool of worm statements.

    Candidate formulas are the pool worms and their negations (the trivially
    true statement is always included). Propositional tautologies are
    represented by a fixed family of classical shapes; the modal schemata
    are instantiated for every index pair n < m <= max_index. Used as a
    validity fixture: every instance must hold at every world of an exactly
    evaluated submodel.
    """
    pool = [Worm(())] + [w for w in worm_pool if not w.is_empty]
    seen = set()
    candidates = []
    for w in pool:
        base = formula_of_worm(w)
        for f in (base, neg(base)):
            if f not in seen:
                seen.add(f)
                candidates.append(f)

    instances: list[Formula] = []

    def emit(f: Formula) -> None:
        if f not in instances_seen:
            instances_seen.add(f)
            instances.append(f)

    instances_seen: set[Formula] = set()

    # propositional tautologies (representative classical shapes)
    for phi in candidates:
        emit(Implies(phi, phi))
        emit(Implies(Bottom(), phi))
        emit(neg(neg(Implies(phi, phi))))
        emit(disj(phi, neg(phi)))
        for psi in candidates:
            emit(Implies(phi, Implies(psi, phi)))
            emit(Implies(Implies(Implies(phi, psi), phi), phi))

    for n in range(max_index + 1):
        for phi in candidates:
            # transitivity-flavored fixed point: Loeb's schema
            emit(Implies(Box(n, Implies(Box(n, phi), phi)), Box(n, phi)))
            for psi in candidates:
                # distribution
                emit(
                    Implies(
                        Box(n, Implies(phi, psi)),
                        Implies(Box(n, phi), Box(n, psi)),
                    )
                )
        for m in range(n + 1, max_index + 1):
            for phi in candidates:
                # monotonicity and negative introspection across levels
                emit(Implies(Box(n, phi), Box(m, phi)))
                emit(Implies(Diamond(n, phi), Box(m, Diamond(n, phi))))

    return instances


# --- forcing on the full model, symbolically ------------------------------
#
# A conjunct {k: (lo, hi)} is the set of worlds x with lo <= x_k < hi at each
# listed coordinate k, where hi None means no upper bound; a truth set is a
# list of satisfiable conjuncts, their union. A conjunct is satisfiable iff
# the least world above its lower bounds meets its upper bounds.


def _under(x: Ordinal, hi: Ordinal | None) -> bool:
    return hi is None or compare(x, hi) < 0


def _least_tail(c: dict, n: int = 0) -> Point | None:
    """The least world meeting c's lower bounds at levels n and up, read as
    a world from level n on; None when it breaks one of c's upper bounds."""
    top = max(c, default=-1) + 1
    tail = least_world([c[k][0] if k in c else ZERO for k in range(n, top)])
    if all(_under(tail.coord(k - n), hi) for k, (_, hi) in c.items() if k >= n):
        return tail
    return None


def _satisfiable(conjuncts: list[dict]) -> list[dict]:
    """The satisfiable ones among the conjuncts, each once."""
    kept = {tuple(sorted(c.items())): c for c in conjuncts if _least_tail(c) is not None}
    return list(kept.values())


def _meet(c: dict, d: dict) -> dict:
    out = dict(c)
    for k, (lo, hi) in d.items():
        lo0, hi0 = out.get(k, (ZERO, None))
        out[k] = (
            lo if compare(lo, lo0) > 0 else lo0,
            hi0 if hi is None or not _under(hi, hi0) else hi,
        )
    return out


def _negate(conjuncts: list[dict]) -> list[dict]:
    out = [{}]
    for c in conjuncts:
        outside = [{k: (ZERO, lo)} for k, (lo, _) in c.items() if lo.terms]
        outside += [{k: (hi, None)} for k, (_, hi) in c.items() if hi is not None]
        out = _satisfiable([_meet(a, b) for a in out for b in outside])
    return out


def _diamond(n: int, conjuncts: list[dict]) -> list[dict]:
    """<n>C: x R_n y iff y agrees with x below n and y_n < x_n, so x needs C's
    bounds below n and x_n above coordinate n of C's least tail from n."""
    out = []
    for c in conjuncts:
        tail = _least_tail(c, n)
        if tail is not None:
            d = {k: bounds for k, bounds in c.items() if k < n}
            d[n] = (add(tail.coord(0), ONE), None)
            out.append(d)
    return _satisfiable(out)


def truth_set(f: Formula) -> list[dict]:
    """The worlds of the full universal model forcing a closed formula, as a
    union of conjuncts. An oracle for the fragment evaluator `forces` on
    exact fragments, for `forces_worm` anywhere, and for theoremhood."""
    match f:
        case Top():
            return [{}]
        case Bottom():
            return []
        case Implies(left=left, right=right):
            return _negate(truth_set(left)) + truth_set(right)
        case Diamond(index=n, body=body):
            return _diamond(n, truth_set(body))
        case Box(index=n, body=body):
            return _negate(_diamond(n, _negate(truth_set(body))))
    raise TypeError(f"not a formula: {f!r}")


def in_truth_set(conjuncts: list[dict], p: Point) -> bool:
    """The world p meets some conjunct, so the formula they are the truth
    set of is forced at p."""
    return any(
        all(compare(lo, p.coord(k)) <= 0 and _under(p.coord(k), hi) for k, (lo, hi) in c.items())
        for c in conjuncts
    )


def is_theorem(f: Formula) -> bool:
    """f holds at every world of the full model, so, by Ignatiev's
    completeness theorem, it is a theorem of the closed fragment of GLP."""
    return not _negate(truth_set(f))
