"""A JSON object's text walked one value at a time by the json module's own
scanner, so that a caller can hold the text and one item of an array field,
not the whole decoded document.

The walk decodes each value as json.loads decodes it, but it never composes
an error of its own: wherever it stops short, it raises a ValueError (or the
scanner's RecursionError) that says nothing anyone should read, and the
caller decodes the whole document with json.loads to say why.
"""

from __future__ import annotations

import json
import re
from json.decoder import scanstring

_SCAN = json.JSONDecoder().scan_once  # json.loads's scanner, with its settings
_SPACE = re.compile(r"[ \t\n\r]*")  # the whitespace json.loads skips between tokens
_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*")  # what follows an object's key
_AFTER_ITEM = re.compile(r"[ \t\n\r]*([,\]])[ \t\n\r]*")  # ... an array's item
_AFTER_FIELD = re.compile(r"[ \t\n\r]*([,}])[ \t\n\r]*")  # ... an object's value
_NEST = 100  # a value that may nest deeper is left to the whole document's decode


def _value(text, i):
    """(value, end) of the JSON value at text[i], decoded as json.loads
    decodes it, end being the index just past it.  ValueError if no value
    starts at i, or if the value may nest more than _NEST levels deep (it
    has 2 * _NEST characters or more, and more than _NEST '[' and '{',
    strings counted too): the recursion limit that json.loads meets depends
    on how deep the stack is, so only the whole document's decode tells
    whether it lets such a value through."""
    try:
        value, end = _SCAN(text, i)
    except StopIteration:
        raise ValueError from None
    if end - i >= 2 * _NEST and text.count("[", i, end) + text.count("{", i, end) > _NEST:
        raise ValueError
    return value, end


def _items(text, i):
    """Each item of the JSON array whose '[' is text[i - 1], decoded by
    _value as it is reached; the generator returns the index just past the
    array's ']'.  ValueError where the text does not go on as an array."""
    i = _SPACE.match(text, i).end()
    if text.startswith("]", i):
        return i + 1
    while True:
        item, i = _value(text, i)
        yield item
        after = _AFTER_ITEM.match(text, i)
        if after is None:
            raise ValueError
        if after[1] == "]":
            return after.end()
        i = after.end()


def array_field(text: str, key: str) -> int | None:
    """The index just past the '[' of the last field `key` of the JSON
    object that is the whole of text, each value of the object (each item
    of an array `key` on its own) decoded by _value and dropped; None if
    text is no such object, or its last field `key` is no array.  ValueError
    or RecursionError where a value does not decode as _value decodes it."""
    i = _SPACE.match(text).end()
    if not text.startswith("{", i):
        return None
    start, i = None, _SPACE.match(text, i + 1).end()
    while text.startswith('"', i):
        name, i = scanstring(text, i + 1)
        colon = _COLON.match(text, i)
        if colon is None:
            return None
        i = colon.end()
        if name == key and text.startswith("[", i):
            start, items = i + 1, _items(text, i + 1)
            try:
                while True:
                    next(items)
            except StopIteration as stop:
                i = stop.value
        else:
            start = None if name == key else start
            i = _value(text, i)[1]
        after = _AFTER_FIELD.match(text, i)
        if after is None:
            return None
        if after[1] == "}":
            return start if after.end() == len(text) else None
        i = after.end()
    return None


class Items:
    """The items of the JSON array in text whose '[' is text[start - 1], as
    array_field found it: each iteration walks the array again, decoding
    one item at a time as it is reached, so only the text is held."""

    __slots__ = ("text", "start")

    def __init__(self, text: str, start: int):
        self.text, self.start = text, start

    def __iter__(self):
        return _items(self.text, self.start)
