"""The text of ``json.dumps(obj, sort_keys=True, indent=2)``, written faster.

With an indent, json steps past its C encoder and builds the text from
nested pure-Python generators, one yield per token.  `dumps` walks the
value once instead, appending one piece per item to a list, and writes
strings and ints that sit in a container inline.

It writes only what the CLI's payloads hold: str, None, bool, int (by
int.__repr__, so subclasses print as json prints them), lists, and dicts
with str keys, their items sorted as ``sorted(d.items())``.  A float, a
tuple or any other value raises TypeError, and so does a key that is not
a str, where json would convert it: no payload holds one, and a test
over every subcommand's JSON output keeps it so.

Unlike json it does not look for a container that contains itself: its
callers write freshly built payloads.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote


def _write(o, out: list, nl: str) -> None:
    """Append o's text to out; nl is a newline and o's indent."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, list):
        _write_list(o, out, nl)
    elif isinstance(o, dict):
        _write_dict(o, out, nl)
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % o.__class__.__name__)


def _write_list(o, out: list, nl: str) -> None:
    if not o:
        out.append("[]")
        return
    inner = nl + "  "
    sep, comma = "[" + inner, "," + inner
    for v in o:
        t = type(v)
        if t is str:
            out.append(sep + _quote(v))
        elif t is int:
            out.append(sep + int.__repr__(v))
        else:
            out.append(sep)
            if t is dict:
                _write_dict(v, out, inner)
            else:
                _write(v, out, inner)
        sep = comma
    out.append(nl + "]")


def _write_dict(o, out: list, nl: str) -> None:
    if not o:
        out.append("{}")
        return
    inner = nl + "  "
    sep, comma = "{" + inner, "," + inner
    for k, v in sorted(o.items()):
        t = type(v)
        if t is str:
            out.append(f"{sep}{_quote(k)}: {_quote(v)}")
        elif t is int:
            out.append(f"{sep}{_quote(k)}: {int.__repr__(v)}")
        else:
            out.append(f"{sep}{_quote(k)}: ")
            if t is list:
                _write_list(v, out, inner)
            else:
                _write(v, out, inner)
        sep = comma
    out.append(nl + "}")


def dumps(obj) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2)``."""
    out: list = []
    _write(obj, out, "\n")
    return "".join(out)
