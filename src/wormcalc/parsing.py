"""The natural-number rules and the small scanner shared by every grammar.

Worm letters, modal indices, presentation levels, relation numbers,
iteration counts and CLI integers are all naturals, and each rule for them
is written once, here: `is_natural` for values (an int n >= 0, not a bool),
and `require_natural`, the one refusal of an argument that is not one, which
names the argument and shows its value; `Cursor.numeral` for a scan, and
`is_numeral` for one key of a JSON object, both ASCII digits without
leading zeros. Parsers and public constructors check their inputs with
these, once, and build their results unchecked.

`Value` is the base every value type shares: slotted, closed to every
attribute write once it is built, and built past its checks in one way,
`Value._from_checked`, the one place that sets a value's slots. Each value
type's public constructor checks its arguments and ends in that call.
`Interned` is the base of the hash-consed ones, ordinals, formulas and
worms: one weak table, here, holds the one live object per value, so that
equality is identity, and every rule of that hash-consing is written once,
in this module. `post_order` lists the distinct nodes of such a value in
constant stack, which is how ordinals and formulas copy and pickle through
a flat table, and how `formula.max_modality` reads a formula's indices.
`parse_comma_list` reads a comma-separated list with any item parser, and
places an item's error in the whole text.
"""

from __future__ import annotations

from weakref import ref

# deletes a key only while it maps to a dead reference, in one C call; it
# is what weakref.WeakValueDictionary removes its dead entries with
from _weakref import _remove_dead_weakref

__all__ = ["ParseError", "Cursor"]

# str.isdigit would also accept other scripts' digits, and superscripts
_ASCII_DIGITS = frozenset("0123456789")


def is_natural(n) -> bool:
    """An int n >= 0 but no bool."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def require_natural(n, noun: str) -> int:
    """n, once it is checked to be a natural; else a ValueError that names
    the argument by its noun ("letter", "level", ...) and shows n's repr."""
    if not is_natural(n):
        raise ValueError(f"{noun} {n!r} must be a natural number")
    return n


def is_numeral(piece) -> bool:
    """Whether piece is a string of ASCII digits without leading zeros;
    False for a non-string. It reads the keys of a presentation's JSON, its
    levels; texts are scanned with `Cursor.numeral`."""
    return isinstance(piece, str) and piece.isdigit() and piece.isascii() and (piece[0] != "0" or len(piece) == 1)


def _build(*key):
    """A new value of class key[0] with the fields key[1:], which are
    already known to be valid; bound as `Value._from_checked`.

    Each field is set through its slot's own setter, since the class's
    __setattr__ refuses every write."""
    cls = key[0]
    value = object.__new__(cls)
    for setter, i in cls._setters:
        setter(value, key[i])
    return value


class Value:
    """An immutable value with its fields in slots.

    A subclass names its constructor's fields, in order, in `__match_args__`,
    which `match` reads too. Equality, hashing, repr, copying and pickling
    go by those fields, in that order, unless the subclass writes its own.
    Every attribute write and delete is refused. The public constructor, a
    `__new__`, checks its arguments and returns `cls._from_checked(*fields)`,
    which parsers and internal results call directly with fields already
    known to be valid; it is the one build, and a copy or an unpickled
    value goes back through the public constructor and its checks.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _from_checked = classmethod(_build)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each field's slot setter, bound once, with the field's place in a
        # build's (and an intern) key, so that a build makes no slice of
        # the key to zip
        names = cls.__match_args__
        cls._setters = tuple((getattr(cls, name).__set__, i) for i, name in enumerate(names, 1))

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._fields()


class _Entry(ref):
    """A weak reference that carries its table key, as weakref.KeyedRef
    does; KeyedRef's constructor is Python code, and this one is weakref's
    own, in C, which makes an entry about three times as cheap."""

    __slots__ = ("key",)


# the one intern table: each key, a class and then its fields, maps to a
# weak reference to the one live value with them
_TABLE: dict = {}


def _forget(entry: _Entry) -> None:
    _remove_dead_weakref(_TABLE, entry.key)


def _intern(*key):
    """The one live value with this key, a class and then its fields, which
    are already known to be valid; bound as `Interned._from_checked`.

    On a miss a new value is built, through `_build`, and entered with one
    `dict.setdefault`, so two threads that build one value at once both
    return the one that was entered."""
    entry = _TABLE.get(key)
    if entry is not None:
        value = entry()
        if value is not None:
            return value
    value = _build(*key)
    entry = _Entry(value, _forget)
    entry.key = key
    # a dead entry is one whose callback has not run yet
    while (live := _TABLE.setdefault(key, entry)()) is None:
        _remove_dead_weakref(_TABLE, key)
    return live


class Interned(Value):
    """A hash-consed Value: every build, through the checks of a public
    constructor or past them through `_from_checked`, returns the one live
    object with its class and fields, and only a miss in the intern table
    builds one, as a plain Value is built. So equality is identity and the
    hash is object's, and neither is stable from one process to the next:
    no output may depend on the order of a set of such values.

    The intern table holds weak references whose callbacks drop their
    entries once the values die, so it holds the live values and no more.
    """

    __slots__ = ("__weakref__",)
    __eq__, __hash__ = object.__eq__, object.__hash__
    _from_checked = classmethod(_intern)


def post_order(root, children) -> dict:
    """The distinct nodes of root, each mapped to its place in post-order:
    every node comes after the nodes children(node) names, and root is last.

    The nodes still to visit wait on a stack, so any depth takes constant
    stack; nodes are told apart by hash and equality, which for hash-consed
    values is identity, so a shared node is listed once."""
    order: dict = {}
    stack = [root]
    while stack:
        node = stack[-1]
        pending = [child for child in children(node) if child not in order]
        if pending:
            stack += pending
            continue
        stack.pop()
        if node not in order:
            order[node] = len(order)
    return order


class ParseError(ValueError):
    """Syntax or canonicity error, carrying its message and the 0-based
    input position; both are its args, so it copies and pickles."""

    def __init__(self, message: str, position: int):
        super().__init__(message, position)
        self.message, self.position = message, position

    def __str__(self) -> str:
        return f"{self.message} (at position {self.position})"


def parse_comma_list(parse, text: str, offset: int = 0):
    """Yield parse(piece) for each comma-separated piece of text, in order.

    text starts at offset in the text the caller was given, and a piece's
    ParseError, whose position counts in the piece, is raised again with
    its position counted in that text."""
    for piece in text.split(","):
        try:
            yield parse(piece)
        except ParseError as error:
            raise ParseError(error.message, offset + error.position) from None
        offset += len(piece) + 1


class Cursor:
    """A peek/expect cursor over a source string, from position pos.

    Whitespace is not skipped automatically; grammars that allow it call
    :meth:`skip_ws` explicitly.
    """

    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_digit(self) -> bool:
        return self.peek() in _ASCII_DIGITS

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def try_eat(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.try_eat(token):
            raise ParseError(f"expected {token!r}", self.pos)

    def natural(self) -> int:
        """Consume a decimal natural (zero allowed; callers reject as needed)."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _ASCII_DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start : self.pos])

    def numeral(self, noun: str, nonzero: bool = False) -> int:
        """Consume a natural without leading zeros, and with nonzero, not 0.

        Each grammar names its numerals in the error: "numbers" in ordinals,
        "indices" in worms, formulas and CLI integers. Both errors point at
        the numeral's first digit, and 0 is refused before a leading zero.
        """
        start = self.pos
        value = self.natural()
        if nonzero and not value:
            raise ParseError("zero is not allowed here", start)
        if self.text[start] == "0" and self.pos - start > 1:
            raise ParseError(f"{noun} may not have leading zeros", start)
        return value

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def expect_end(self) -> None:
        if self.pos < len(self.text):
            raise ParseError(f"unexpected trailing input {self.text[self.pos:]!r}", self.pos)
