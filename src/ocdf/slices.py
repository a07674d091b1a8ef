"""The sliced load of a large model document.

`serialize` writes `model._HEAD`, then each class as
`{"name":...,"features":[...],"flows":[...]}`, comma-separated, then `]}`.
`model.deserialize` hands a document that may hold a record array longer
than `model._SLICE` characters to `sliced_model`, which parses each such
array of a document in that layout one slice of records at a time. A load
then holds the decoded text, the records and one slice of JSON, never the
whole JSON tree.

A `"` inside a valid JSON string is escaped, so `{"id":` and `{"kind":`
never lie inside one (a quote after the brace would end the string, and no
key may follow that). A cut at `},{"id":` or `},{"kind":` therefore falls
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
from .model import (_FLOWS, _HEAD, _SURROGATE_ESCAPE, OcdfClass, OcdfModel, _bulk_class,
                    _check_class, _check_class_names)

_NAME = '{"name":"'
_FEATURES = ',"features":['
_NEXT = ']},{"name":"'  # the end of a class's flows when another class follows


def sliced_model(text: str) -> OcdfModel | None:
    """The model of a document in `serialize`'s layout that has a record
    array longer than `model._SLICE`, loaded one slice of records at a
    time; None for any other document, and for one that fails anywhere on
    this path, so that the whole-document path reports its diagnostics in
    its order.

    The class level is read in the exact layout, each name by `json`'s own
    string scanner, and each array is taken to end at the first text that
    must follow it (the last class's flows, at the document's last `]}]}`).
    That end is right when every slice of the array parses as a list of
    values: a bracket inside a record would leave a slice unbalanced. The
    whole document then parses as this path read it."""
    if not text.startswith(_HEAD):
        return None
    spans = []  # per class: name, features start and end, flows start and end
    pos = len(_HEAD)
    try:
        while True:
            if not text.startswith(_NAME, pos):
                return None
            name, pos = scanstring(text, pos + len(_NAME))
            if not name or not text.startswith(_FEATURES, pos):
                return None
            features = pos + len(_FEATURES)
            features_end = text.index(_FLOWS, features)
            flows = features_end + len(_FLOWS)
            flows_end = text.find(_NEXT, flows)
            if flows_end >= 0:
                spans.append((name, features, features_end, flows, flows_end))
                pos = flows_end + 3  # the next class's `{`
                continue
            flows_end = text.rfind("]}]}", flows)  # the last class
            if flows_end < 0 or text[flows_end + 4:].strip(" \t\n\r"):
                return None
            spans.append((name, features, features_end, flows, flows_end))
            break
        if (max(max(f_end - f, l_end - l) for _, f, f_end, l, l_end in spans) <= model._SLICE
                or _SURROGATE_ESCAPE.search(text)):
            return None
        classes = []
        problems: list[Diagnostic] = []
        for name, features, features_end, flows, flows_end in spans:
            features = _records(text, features, features_end, '},{"id":', "features")
            flows = _records(text, flows, flows_end, '},{"kind":', "flows")
            _, flows = _check_class(name, features, flows, problems)
            classes.append(OcdfClass(name, features, flows))
        _check_class_names(classes, problems)
    except (ValueError, RecursionError):  # malformed, an over-long integer, nesting
        return None
    return None if problems else OcdfModel(tuple(classes))


def _records(text: str, start: int, end: int, cut: str, key: str) -> tuple:
    """The records of the array between `start` and `end`, parsed a slice at
    a time and lowered by `_bulk_class` as the `key` records of a class; a
    slice ends at the first `cut` past `model._SLICE` characters, read at
    each call so that a test may lower it. Raises ValueError for a slice
    that does not parse or holds an irregular record."""
    records: list = []
    while True:
        at = text.find(cut, start + model._SLICE, end) if end - start > model._SLICE else -1
        lowered = _bulk_class({key: json.loads(f"[{text[start:end if at < 0 else at + 1]}]")})
        if lowered is None:
            raise ValueError("an irregular record")
        records += lowered[1] if key == "flows" else lowered[0]
        if at < 0:
            return tuple(records)
        start = at + 2
