"""One-pass reading of a JSON object with one array member too large to
hold as a list, from text held whole or as pieces that are never joined.

Values are decoded by the json module's own scanner, as ``json.loads``
decodes them; a value cut by a piece boundary is scanned again once the
next piece is drawn.  Text that is not a JSON object, or not JSON at all,
is left to ``json.loads``, which decodes it or names the fault.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Container, Iterable, Iterator

__all__ = ["load_streamed"]

_WS = "[ \t\n\r]*"  # JSON whitespace, as the json module skips it
_ITEM_END = re.compile(rf"{_WS}([,\]]){_WS}")
_scan_once = json.JSONDecoder().scan_once  # one value at an index, as json.loads decodes it
# A scan that ends this close to the end of the text drawn so far may end
# elsewhere in the whole text: a number cut after "1." or "1e+" scans as 1.
_LOOKAHEAD = 3


class _Unreadable(Exception):
    """The text is not a JSON object; ``json.loads`` tells what it is."""


def _matcher(pattern: str) -> Callable[[str, int], tuple[re.Match, int]]:
    """A scan for ``pattern``, as ``_scan_once`` scans for a value."""
    match = re.compile(pattern).match

    def scan(text: str, index: int) -> tuple[re.Match, int]:
        found = match(text, index)
        if found is None:
            raise StopIteration
        return found, found.end()

    return scan


_open = _matcher(rf"{_WS}\{{{_WS}(\}}{_WS})?")
_colon = _matcher(rf"{_WS}:{_WS}")
_array_open = _matcher(rf"\[{_WS}(\]{_WS})?")
_member_end = _matcher(rf"{_WS}([,}}]){_WS}")
_item_end = _matcher(_ITEM_END.pattern)


class _Cursor:
    """A read position in text held as pieces: ``text[index:]`` is the
    unread part of the pieces drawn so far."""

    def __init__(self, pieces: Iterable[str]) -> None:
        self.pieces = iter(pieces)
        self.text = ""
        self.index = 0

    def draw(self, need: int) -> bool:
        """Draw pieces until at least ``need`` characters are unread,
        dropping those read; False when no text was left to draw."""
        rest = self.text[self.index :]
        drawn = [rest] if rest else []  # so that one piece is not copied
        size = len(rest)
        for piece in self.pieces:
            drawn.append(piece)
            size += len(piece)
            if size >= need:
                break
        if size == len(rest):
            return False
        self.text, self.index = "".join(drawn), 0
        return True

    def take(self, scan: Callable[[str, int], tuple[object, int]]) -> object:
        """``scan(text, index)``'s value, read past.  A scan that fails or
        ends within ``_LOOKAHEAD`` of the drawn text is repeated on more,
        at least twice the unread text after a failure; a scan that fails
        on all of the text raises _Unreadable."""
        while True:
            unread = len(self.text) - self.index
            try:
                value, end = scan(self.text, self.index)
            except (StopIteration, json.JSONDecodeError):
                if self.draw(2 * unread + 1):
                    continue
                raise _Unreadable from None
            if end + _LOOKAHEAD > len(self.text) and self.draw(unread + 1):
                continue
            self.index = end
            return value


def _items(cursor: _Cursor) -> Iterator[object]:
    """The items of the array whose "[" is next, decoded one at a time;
    the last leaves the cursor past the "]" and the whitespace after it."""
    if cursor.take(_array_open)[1] is not None:
        return
    while True:
        # Most items end well inside the drawn text: they skip ``take``.
        text, index = cursor.text, cursor.index
        try:
            item, end = _scan_once(text, index)
            after = _ITEM_END.match(text, end)
        except (StopIteration, json.JSONDecodeError):
            after = None
        if after is not None and after.end() + _LOOKAHEAD <= len(text):
            cursor.index = after.end()
        else:
            item = cursor.take(_scan_once)
            after = cursor.take(_item_end)
        yield item
        if after[1] == "]":
            return


def load_streamed(
    text: str | Iterable[str],
    key: str,
    consume: Callable[[Iterator[object]], object],
    keep: Container[str] = (),
) -> tuple[dict, object] | None:
    """The members ``keep`` of the JSON object ``text``, a string or its
    pieces in order, and ``consume``'s result for an iterator of the items
    of array member ``key``, decoded in one pass; every other member is
    decoded, an array an item at a time, and dropped.  A duplicate key
    resolves as in ``json.loads``: when the last ``key`` is not an array,
    it is kept and the result is None, as without a ``key``.  Items left
    undrawn by ``consume`` are decoded after it, so all text is checked.
    Returns None for text that is not a JSON object or not JSON."""
    cursor = _Cursor((text,) if isinstance(text, str) else text)
    document: dict = {}
    result = None
    try:
        closed = cursor.take(_open)[1] is not None
        while not closed:
            name = cursor.take(_scan_once)
            if not isinstance(name, str):
                return None
            cursor.take(_colon)
            if cursor.text.startswith("[", cursor.index) and (name == key or name not in keep):
                items = _items(cursor)
                if name == key:
                    result = consume(items)
                    document.pop(name, None)
                for _ in items:
                    pass
            else:
                value = cursor.take(_scan_once)
                if name == key or name in keep:
                    document[name] = value
                if name == key:
                    result = None
            closed = cursor.take(_member_end)[1] == "}"
    except _Unreadable:
        return None
    if cursor.index < len(cursor.text) or cursor.draw(1):
        return None
    return document, result
