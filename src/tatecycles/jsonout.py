"""The --json writer: json.dumps(obj, indent=2) text, written as it is encoded.

With ``indent`` set, the standard library encodes in pure Python and joins
every piece of the text before returning it; for a survey to 10^6 that string
and its pieces more than double the memory the report itself takes.  This
writer gives byte-identical text, encodes scalars by a lookup on their exact
type, memoises the ``"key": `` prefixes and indents, and hands the text to
the stream in chunks of whole list elements (rows).
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

__all__ = ["write_json"]

# pieces held before a write; checked after each list element, so a report
# is written in chunks of whole rows
_FLUSH_PIECES = 4096
_INFINITY = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


# scalar encoders by exact type; a subclass goes through _subclass_text
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _subclass_text(value) -> str:
    # the order in which json's encoder tests the types
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key, memo: dict) -> str:
    """The ``"key": `` prefix of a dict item, with json's key coercions.
    Only a str key's prefix is stored in memo: 1, 1.0 and True hash alike
    and take different text."""
    if type(key) is str:
        text = encode_basestring_ascii(key) + ": "
        memo[key] = text
        return text
    if isinstance(key, str):
        text = key
    elif isinstance(key, float):
        text = _float_text(key)
    elif key is True:
        text = "true"
    elif key is False:
        text = "false"
    elif key is None:
        text = "null"
    elif isinstance(key, int):
        text = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return encode_basestring_ascii(text) + ": "


def write_json(obj, write) -> None:
    """Write ``json.dumps(obj, indent=2) + "\\n"`` through ``write``, in chunks.

    The text is byte-identical to the standard library's, and a value json
    cannot encode raises the same TypeError, but the report is written as it
    is encoded: memory holds the pieces of about one chunk of rows, not the
    whole text.  ``obj`` must be a tree (json.dumps would also reject a
    cycle); text written before a TypeError stays written.

    >>> import io, json
    >>> report = {"rows": [{"n": 1, "dim": 2}], "x": (0.5, None, True), "e": {}}
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
        0.5,
        null,
        true
      ],
      "e": {}
    }
    """
    parts: list[str] = []
    encode = _SCALAR_TEXT.get(type(obj))
    if encode is not None:
        parts.append(encode(obj))
    elif isinstance(obj, (list, tuple, dict)):
        _write_container(obj, 0, parts, {}, [], write)
    else:
        parts.append(_subclass_text(obj))
    parts.append("\n")
    write("".join(parts))


def _layout(level: int, layouts: list) -> tuple[str, str, str, str, str]:
    """Opening, separating and closing text of a container at an indent
    level: dict open, list open, item separator, dict close, list close."""
    while len(layouts) <= level:
        inner = "\n" + "  " * (len(layouts) + 1)
        outer = inner[:-2]
        layouts.append(("{" + inner, "[" + inner, "," + inner, outer + "}", outer + "]"))
    return layouts[level]


def _write_container(o, level: int, parts: list, keys: dict, layouts: list, write) -> None:
    """Append the text of a list, tuple or dict at an indent level to parts,
    writing and dropping the pieces held once there are _FLUSH_PIECES of
    them at the end of a list element; keys memoises the "key": prefixes."""
    append = parts.append
    if not o:
        append("{}" if isinstance(o, dict) else "[]")
        return
    dict_open, list_open, separator, dict_close, list_close = (
        layouts[level] if level < len(layouts) else _layout(level, layouts)
    )
    scalar_text = _SCALAR_TEXT.get
    if isinstance(o, dict):
        prefix = dict_open
        for key, value in o.items():
            key_text = keys.get(key) or _key_text(key, keys)
            encode = scalar_text(type(value))
            if encode is not None:
                append(prefix + key_text + encode(value))
            elif isinstance(value, (list, tuple, dict)):
                append(prefix + key_text)
                _write_container(value, level + 1, parts, keys, layouts, write)
            else:
                append(prefix + key_text + _subclass_text(value))
            prefix = separator
        append(dict_close)
    else:
        prefix = list_open
        for value in o:
            encode = scalar_text(type(value))
            if encode is not None:
                append(prefix + encode(value))
            elif isinstance(value, (list, tuple, dict)):
                append(prefix)
                _write_container(value, level + 1, parts, keys, layouts, write)
            else:
                append(prefix + _subclass_text(value))
            prefix = separator
            if len(parts) >= _FLUSH_PIECES:
                write("".join(parts))
                parts.clear()
        append(list_close)
