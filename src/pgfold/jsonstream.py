"""One-pass reading of a JSON object with one array member too large to
hold as a list.

``load_streamed`` decodes a JSON object member by member with the json
module's own scanner, so every value decodes exactly as ``json.loads``
decodes it, but it hands the items of one array member to a consumer as
they are decoded instead of collecting them.  Text that is not a JSON
object, or not JSON at all, is left to ``json.loads``, which decodes it or
names the fault.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterator

__all__ = ["load_streamed"]

_SPACE = re.compile(r"[ \t\n\r]*")  # JSON whitespace, as the json module skips it
_MEMBER_END = re.compile(r"[ \t\n\r]*([,}])[ \t\n\r]*")
_ITEM_END = re.compile(r"[ \t\n\r]*([,\]])[ \t\n\r]*")
_scan_once = json.JSONDecoder().scan_once  # one value at an index, as json.loads decodes it


class _Unreadable(Exception):
    """The text is not a JSON object; ``json.loads`` tells what it is."""


class _ArrayItems:
    """The items of the JSON array whose "[" ends before ``text[start]``,
    decoded one at a time when iterated; ``end`` is then the index after
    the "]" and the whitespace that follows it."""

    def __init__(self, text: str, start: int) -> None:
        self.text = text
        self.end = start

    def __iter__(self) -> Iterator[object]:
        text = self.text
        index = _SPACE.match(text, self.end).end()
        if text.startswith("]", index):
            self.end = _SPACE.match(text, index + 1).end()
            return
        while True:
            try:
                item, index = _scan_once(text, index)
            except StopIteration:  # no value here
                raise _Unreadable from None
            yield item
            after = _ITEM_END.match(text, index)
            if after is None:
                raise _Unreadable
            index = after.end()
            if after[1] == "]":
                self.end = index
                return


def load_streamed(
    text: str, key: str, consume: Callable[[Iterator[object]], object]
) -> tuple[dict, object] | None:
    """The JSON object ``text``, decoded in one pass, with each array value
    of member ``key`` handed to ``consume`` as an iterator of its items.

    Returns the object without an array ``key`` and ``consume``'s result
    for it.  A duplicate key resolves as in ``json.loads``, the last one
    winning; when that last ``key`` is not an array, it stays in the
    object and the result is None, as it is without a ``key``.  Items that
    ``consume`` leaves undrawn are decoded after it returns, so the whole
    text is checked.  Returns None for text that is not a JSON object or
    not JSON."""
    try:
        return _load(text, key, consume)
    except (_Unreadable, json.JSONDecodeError):
        return None


def _load(
    text: str, key: str, consume: Callable[[Iterator[object]], object]
) -> tuple[dict, object]:
    document: dict = {}
    result = None
    index = _SPACE.match(text).end()
    if not text.startswith("{", index):
        raise _Unreadable
    index = _SPACE.match(text, index + 1).end()
    closed = text.startswith("}", index)
    if closed:
        index = _SPACE.match(text, index + 1).end()
    while not closed:
        if not text.startswith('"', index):
            raise _Unreadable
        name, index = _scan_once(text, index)
        index = _SPACE.match(text, index).end()
        if not text.startswith(":", index):
            raise _Unreadable
        index = _SPACE.match(text, index + 1).end()
        if name == key and text.startswith("[", index):
            array = _ArrayItems(text, index + 1)
            items = iter(array)
            result = consume(items)
            for _ in items:
                pass
            document.pop(name, None)
            index = array.end
        else:
            try:
                document[name], index = _scan_once(text, index)
            except StopIteration:  # no value here
                raise _Unreadable from None
            if name == key:
                result = None
        after = _MEMBER_END.match(text, index)
        if after is None:
            raise _Unreadable
        index = after.end()
        closed = after[1] == "}"
    if index != len(text):
        raise _Unreadable
    return document, result
