"""The --json writer: json.dumps(obj, indent=2) text, written as it is encoded.

With ``indent`` set, the standard library encodes in pure Python and joins
every piece of the text before returning it; for a survey to 10^6 that string
and its pieces more than double the memory the report itself takes.  This
writer gives byte-identical text for the report schema, encodes scalars by a
lookup on their exact type, memoises the ``"key": `` prefixes and indents,
and hands the text to the stream in chunks of whole list elements (rows).
A one-shot iterator may stand for a list, so a sweep's rows are made as they
are written and never held all at once.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii

__all__ = ["write_json"]

# pieces held before a write; checked after each list element, so a report
# is written in chunks of whole rows
_FLUSH_PIECES = 4096

# scalar encoders by exact type: the only scalars a report holds
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _not_in_schema(value) -> TypeError:
    return TypeError(f"Object of type {value.__class__.__name__} is not in the report schema")


def write_json(obj, write) -> None:
    """Write ``json.dumps(obj, indent=2) + "\\n"`` through ``write``, in chunks.

    ``obj`` is a report: a dict or a list, holding dicts with str keys,
    lists, str, int, bool and None, each of exactly that type.  Below the
    top level, a one-shot iterator may stand where a list goes: it is
    written as the list of its items, each taken as the text reaches it, so
    rows can be made as they are written.  Anything else (a float, a tuple,
    a non-str key, a subclass) raises TypeError, and text written before it
    stays written.  The report is written as it is encoded: memory holds
    the pieces of about one chunk of rows, not the whole text.

    >>> import io, json
    >>> report = {"rows": [{"n": 1, "dim": 2}], "x": ["0.5", None, True], "e": {}}
    >>> out = io.StringIO()
    >>> write_json(report, out.write)
    >>> out.getvalue() == json.dumps(report, indent=2) + "\\n"
    True
    >>> print(out.getvalue(), end="")
    {
      "rows": [
        {
          "n": 1,
          "dim": 2
        }
      ],
      "x": [
        "0.5",
        null,
        true
      ],
      "e": {}
    }
    """
    if type(obj) is not dict and type(obj) is not list:
        raise _not_in_schema(obj)
    parts: list[str] = []
    _write_container(obj, 0, parts, {}, write)
    parts.append("\n")
    write("".join(parts))


@lru_cache(maxsize=None)
def _layout(level: int) -> tuple[str, str, str, str, str]:
    """Opening, separating and closing text of a container at an indent
    level: dict open, list open, item separator, dict close, list close."""
    inner = "\n" + "  " * (level + 1)
    return "{" + inner, "[" + inner, "," + inner, inner[:-2] + "}", inner[:-2] + "]"


def _write_container(o, level: int, parts: list, keys: dict, write) -> None:
    """Append the text of a list or dict at an indent level to parts,
    writing and dropping the pieces held once there are _FLUSH_PIECES of
    them at the end of a list element; keys memoises the "key": prefixes."""
    append = parts.append
    if not o:
        append("{}" if type(o) is dict else "[]")
        return
    dict_open, list_open, separator, dict_close, list_close = _layout(level)
    scalar_text = _SCALAR_TEXT.get
    if type(o) is dict:
        prefix = dict_open
        for key, value in o.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            key_text = keys.get(key)
            if key_text is None:
                key_text = keys[key] = encode_basestring_ascii(key) + ": "
            encode = scalar_text(type(value))
            if encode is not None:
                append(prefix + key_text + encode(value))
            elif type(value) is list or type(value) is dict:
                append(prefix + key_text)
                _write_container(value, level + 1, parts, keys, write)
            elif isinstance(value, Iterator):
                append(prefix + key_text)
                _write_iterator(value, level + 1, parts, keys, write)
            else:
                raise _not_in_schema(value)
            prefix = separator
        append(dict_close)
    else:
        prefix = list_open
        for value in o:
            encode = scalar_text(type(value))
            if encode is not None:
                append(prefix + encode(value))
            elif type(value) is list or type(value) is dict:
                append(prefix)
                _write_container(value, level + 1, parts, keys, write)
            elif isinstance(value, Iterator):
                append(prefix)
                _write_iterator(value, level + 1, parts, keys, write)
            else:
                raise _not_in_schema(value)
            prefix = separator
            if len(parts) >= _FLUSH_PIECES:
                write("".join(parts))
                parts.clear()
        append(list_close)


def _write_iterator(it, level: int, parts: list, keys: dict, write) -> None:
    """Append the text of a one-shot iterator's items as a list, consuming
    it as the list is written."""
    for first in it:
        _write_container(chain((first,), it), level, parts, keys, write)
        return
    parts.append("[]")
