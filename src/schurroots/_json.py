"""JSON text of reports and configs: the bytes of json.dumps(obj,
sort_keys=True, indent=2), written without its per-item generators.

json.dumps with an indent runs the pure-Python encoder, which makes
several generator steps for every number of a matrix. This writer builds
each container's text from its items' texts, quotes strings with the same
C function as json (encode_basestring_ascii) and writes floats with
float.__repr__, as json does. A list of [re, im] pairs of finite floats,
the form of a matrix row, is written in one pass over its pairs.
"""

import math
from json.encoder import encode_basestring_ascii as _quote

_float_repr = float.__repr__
_int_repr = int.__repr__
_SEQUENCES = {list, tuple}


def dumps(obj, allow_nan: bool = False) -> str:
    """json.dumps(obj, sort_keys=True, indent=2, allow_nan=allow_nan),
    byte for byte, for objects whose dict keys are all str.

    NaN and the infinities raise ValueError unless allow_nan, and are
    written NaN, Infinity and -Infinity if it is set, as json writes them.
    A dict key that is not a str, or a value json cannot encode, raises
    TypeError. There is no check for circular references.
    """
    return _encode(obj, "\n", allow_nan)


def _float(x: float, allow_nan: bool) -> str:
    if math.isfinite(x):
        return _float_repr(x)
    if x != x:
        text = "NaN"
    else:
        text = "Infinity" if x > 0 else "-Infinity"
    if not allow_nan:
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return text


def _pair_rows(obj, inner: str):
    """The items of obj, a list of [re, im] pairs of finite floats, as json
    writes them at the indent of inner, joined; None for any other list.

    Every item is formatted in one pass. An item that is not a list or
    tuple of two floats is found before the pass or stops it with
    TypeError or ValueError; a non-finite float is written inf, -inf or
    nan by float.__repr__, and "n" is in no finite float's repr, so one
    search finds it. Either way the list takes the general path, which
    writes or refuses each item as json does.
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


def _encode(obj, newline: str, allow_nan: bool) -> str:
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
        return _float(obj, allow_nan)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        text = _pair_rows(obj, inner)
        if text is None:
            items = [_encode(v, inner, allow_nan) for v in obj]
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
            items.append(_quote(key) + ": " + _encode(value, inner, allow_nan))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
