"""Small scanner shared by the ordinal, worm, formula and point parsers."""

from __future__ import annotations

__all__ = ["ParseError", "Cursor"]

# str.isdigit would also accept other scripts' digits, and superscripts
_ASCII_DIGITS = frozenset("0123456789")


class ParseError(ValueError):
    """Syntax or canonicity error, carrying the 0-based input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Cursor:
    """A peek/expect cursor over a source string.

    Whitespace is not skipped automatically; grammars that allow it call
    :meth:`skip_ws` explicitly.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_digit(self) -> bool:
        return self.peek() in _ASCII_DIGITS

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

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

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def expect_end(self) -> None:
        if not self.at_end():
            raise ParseError(f"unexpected trailing input {self.text[self.pos:]!r}", self.pos)
