"""JSON output of the commands, written member by member.

The text is ``json.dumps(data, indent=2)`` and a newline, byte for byte,
built without the pure-Python encoder that ``indent`` selects, and
without loading ``json``: each string goes through the C escaper of
``_json``, which ``json.dumps`` uses (``ensure_ascii``, so ``∅`` is
``\\u2205``), ints, ``true``, ``false`` and ``null`` are written here,
``json.dumps`` writes any other scalar, and containers are laid out here.
Only the commands that write JSON load this module.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .cli import _emit

from _json import encode_basestring_ascii as _quote

# the characters that JSON writes as they are: printable ASCII but " and \
_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"").replace(b"\\", b"")


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
    if isinstance(value, int):
        return ("false", "true")[value] if isinstance(value, bool) else int.__repr__(value)
    if value is None:
        return "null"
    import json

    return json.dumps(value)


def _json_string(text: str) -> tuple[str, ...]:
    """The JSON string of ``text``, in pieces: a text that needs no escape
    is not copied."""
    if text.isascii() and not text.encode().translate(None, _PLAIN):
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


def _emit_series_json(args, series) -> None:
    """Write ``json.dumps(series_to_json_dict(series), indent=2)`` and a
    newline, member by member, without the dict."""
    from .series import _json_form

    head, keys, texts = _json_form(series)  # all that can fail, before any output

    def pieces():
        members = (_quote(k) + ": " + _json_text(v) for k, v in head.items())
        yield "{\n  " + ",\n  ".join(members) + ',\n  "coefficients": '
        sep = "{\n    "
        for key, text in zip(keys, texts):
            yield sep + _quote(key) + ": " + _quote(text)
            sep = ",\n    "
        yield "\n  }\n}\n" if sep[0] == "," else "{}\n}\n"

    _emit(args, pieces())
