"""JSON text of reports and configs, and the one owner of the number
format of a report.

For JSON's own types with finite floats the text is the bytes of
json.dumps(obj, sort_keys=True, indent=2). A report also holds numpy
scalars, complex numbers and, in a failed identity row, NaN or an
infinity; the writer takes them as they are: a numpy integer, float or
bool is written as its Python value, a complex number as its [re, im]
pair, and NaN, inf and -inf as the JSON strings "nan", "inf" and "-inf"
(their repr), so every report is strict JSON.

json.dumps with an indent runs the pure-Python encoder, which makes
several generator steps for every number of a matrix. This writer builds
each container's text from its items' texts in one walk, quotes strings
with the same C function as json (encode_basestring_ascii) and writes
floats with float.__repr__, as json does. A list of [re, im] pairs of
finite floats, the form of a matrix row, is written in one pass over its
pairs.
"""

import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

_float_repr = float.__repr__
_int_repr = int.__repr__
_SEQUENCES = {list, tuple}


def dumps(obj) -> str:
    """obj as JSON with sorted keys and two-space indentation, in the
    number format of the module docstring: json.dumps(obj, sort_keys=True,
    indent=2), byte for byte, for JSON's own types with finite floats.

    A dict key that is not a str, or a value of any other type (an
    ndarray, say), raises TypeError. There is no check for circular
    references.
    """
    return _encode(obj, "\n")


def _float(x: float) -> str:
    text = _float_repr(x)
    return text if math.isfinite(x) else '"' + text + '"'


def _pair_rows(obj, inner: str):
    """The items of obj, a list of [re, im] pairs of finite floats, as json
    writes them at the indent of inner, joined; None for any other list.

    Every item is formatted in one pass. An item that is not a list or
    tuple of two floats is found before the pass or stops it with
    TypeError or ValueError; a non-finite float is written inf, -inf or
    nan by float.__repr__, and "n" is in no finite float's repr, so one
    search finds it. Either way the list takes the general path, which
    writes or refuses each item on its own.
    """
    if not set(map(type, obj)) <= _SEQUENCES:
        return None
    deeper = inner + "  "
    try:
        texts = [f"[{deeper}{_float_repr(re)},{deeper}{_float_repr(im)}{inner}]"
                 for re, im in obj]
    except (TypeError, ValueError):
        return None
    text = ("," + inner).join(texts)
    return None if "n" in text else text


def _encode(obj, newline: str) -> str:
    """The text of obj at the indent of newline ("\\n" plus two spaces per
    level): a container's items go on lines indented one level deeper."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return _int_repr(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        text = _pair_rows(obj, inner)
        if text is None:
            items = [_encode(v, inner) for v in obj]
            text = ("," + inner).join(items)
        return "[" + inner + text + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            items.append(_quote(key) + ": " + _encode(value, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, complex):
        return _encode([obj.real, obj.imag], newline)
    if isinstance(obj, np.integer):
        return _int_repr(int(obj))
    if isinstance(obj, np.floating):
        return _float(float(obj))
    if isinstance(obj, np.bool_):
        return "true" if obj else "false"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
