"""The sliced load of a large model document.

`serialize` writes `model._HEAD`, then each class as `_NAME`, its name,
`_FEATURES`, its features, `_FLOWS`, its flows and `_END`, comma-separated,
then `_END`; each text matched here is built from those. `model.deserialize`
hands a document that may hold a record array longer than `model._SLICE`
characters to `sliced_model`, which parses each such array of a document in
that layout one slice of records at a time. A load then holds the decoded
text, the records and one slice of JSON, never the whole JSON tree.

A `"` inside a valid JSON string is escaped, so `{"id":` and `{"kind":`
never lie inside one (a quote after the brace would end the string, and no
key may follow that). A cut at `,{"id":` or `,{"kind":` therefore falls
between two records or inside a nested value, and a slice cut inside a
nested value does not parse. The same holds for `_FLOWS` and `_NEXT`.

This path lives apart from `ocdf.model` because a stage process compiles
what it imports when no byte-code is cached: a stage whose documents hold
no long array then never compiles it.
"""

from __future__ import annotations

import json
from json.decoder import scanstring

from . import model
from .diagnostics import Diagnostic
from .model import (_END, _FEATURE_HEAD, _FEATURES, _FLOW_HEAD, _FLOWS, _HEAD, _NAME,
                    _SURROGATE_ESCAPE, OcdfClass, OcdfModel, _bulk_class, _check_class,
                    _check_class_names)

_OPEN = _NAME + '"'  # a class's opener, up to its name's first character
_AFTER = _END + ","  # the end of a class's flows when another class follows
_NEXT = _AFTER + _OPEN
_LAST = _END + _END  # the end of the last class's flows and of the document


def sliced_model(text: str) -> OcdfModel | None:
    """The model of a document in `serialize`'s layout that has a record
    array longer than `model._SLICE`, loaded one slice of records at a
    time; None for any other document, and for one that fails anywhere on
    this path, so that the whole-document path reports its diagnostics in
    its order.

    The class level is read in the exact layout, each name by `json`'s own
    string scanner, and each array is taken to end at the first text that
    must follow it (the last class's flows, at the document's last `_LAST`).
    That end is right when every slice of the array parses as a list of
    values: a bracket inside a record would leave a slice unbalanced. The
    whole document then parses as this path read it."""
    if not text.startswith(_HEAD):
        return None
    spans = []  # per class: name, features start and end, flows start and end
    pos = len(_HEAD)
    try:
        while True:
            if not text.startswith(_OPEN, pos):
                return None
            name, pos = scanstring(text, pos + len(_OPEN))
            if not name or not text.startswith(_FEATURES, pos):
                return None
            features = pos + len(_FEATURES)
            features_end = text.index(_FLOWS, features)
            flows = features_end + len(_FLOWS)
            flows_end = text.find(_NEXT, flows)
            if flows_end >= 0:
                spans.append((name, features, features_end, flows, flows_end))
                pos = flows_end + len(_AFTER)  # the next class's opener
                continue
            flows_end = text.rfind(_LAST, flows)  # the last class
            if flows_end < 0 or text[flows_end + len(_LAST):].strip(" \t\n\r"):
                return None
            spans.append((name, features, features_end, flows, flows_end))
            break
        if (max(max(f_end - f, l_end - l) for _, f, f_end, l, l_end in spans) <= model._SLICE
                or _SURROGATE_ESCAPE.search(text)):
            return None
        classes = []
        problems: list[Diagnostic] = []
        for name, features, features_end, flows, flows_end in spans:
            features = _records(text, features, features_end, _FEATURE_HEAD, "features")
            flows = _records(text, flows, flows_end, _FLOW_HEAD, "flows")
            _, flows = _check_class(name, features, flows, problems)
            classes.append(OcdfClass(name, features, flows))
        _check_class_names(classes, problems)
    except (ValueError, RecursionError):  # malformed, an over-long integer, nesting
        return None
    return None if problems else OcdfModel(tuple(classes))


def _records(text: str, start: int, end: int, head: str, key: str) -> tuple:
    """The records of the array between `start` and `end`, parsed a slice at
    a time and lowered by `_bulk_class` as the `key` records of a class; a
    slice ends at the first comma followed by a record `head` past
    `model._SLICE` characters, read at each call so that a test may lower
    it. Raises ValueError for a slice that does not parse or holds an
    irregular record."""
    cut = "," + head
    records: list = []
    while True:
        at = text.find(cut, start + model._SLICE, end)
        lowered = _bulk_class({key: json.loads(f"[{text[start:end if at < 0 else at]}]")})
        if lowered is None:
            raise ValueError("an irregular record")
        records += lowered[1] if key == "flows" else lowered[0]
        if at < 0:
            return tuple(records)
        start = at + 1  # past the comma
