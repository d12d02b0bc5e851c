"""JSON output of the commands, written member by member.

The text is ``json.dumps(data, indent=2)`` and a newline, byte for byte,
built without the pure-Python encoder that ``indent`` selects: each
string goes through the C escaper ``json.dumps`` uses (``ensure_ascii``,
so ``∅`` is ``\\u2205``), each other scalar through ``json.dumps`` itself,
and containers are laid out here.  Only the commands that write JSON
load this module, and with it ``json``.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator

from .cli import _emit


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` with ``indent``, a newline and the
    spaces of the enclosing level, starting each line after the first.
    Object keys are strings."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        members = [_quote(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(members) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        members = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(members) + indent + "]"
    return json.dumps(value)


def _json_members(brackets: str, members: Iterable[tuple], indent: str, depth: int):
    """The text of a container, given by its ``brackets`` and its (head,
    value) ``members``, one piece per member, their values in pieces down
    to ``depth`` levels."""
    inner = indent + "  "
    sep = brackets[0] + inner
    for head, value in members:
        yield sep + head
        yield from _json_pieces(value, inner, depth - 1)
        sep = "," + inner
    yield indent + brackets[1] if sep[0] == "," else brackets


def _json_pieces(value, indent: str, depth: int) -> Iterator[str]:
    """:func:`_json_text` of ``value`` in pieces: one per member of each
    container down to ``depth`` levels."""
    if depth and isinstance(value, dict):
        members = ((_quote(k) + ": ", v) for k, v in value.items())
        return _json_members("{}", members, indent, depth)
    if depth and isinstance(value, (list, tuple)):
        return _json_members("[]", (("", v) for v in value), indent, depth)
    return iter((_json_text(value, indent),))


def _json_string(text: str) -> tuple[str, ...]:
    """The JSON string of ``text``, in pieces: a text that needs no escape
    is not copied."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"', text, '"'
    return (_quote(text),)


def _json_list(texts: Iterable[str]) -> Iterator[str]:
    """The text of a JSON list, as ``json.dumps(..., indent=2)`` lays it
    out, and a newline, one element at a time: ``texts`` are the
    elements' own texts at the indent of a list member, as
    ``_json_text(element, "\\n  ")`` gives them."""
    sep = "[\n  "
    for text in texts:
        yield sep
        yield text
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _emit_json(args, data) -> None:
    """Write ``json.dumps(data, indent=2)`` and a newline, member by member
    down to the members of the top level's members."""
    _emit(args, chain(_json_pieces(data, "\n", 2), ("\n",)))
