"""The canonical JSON form of a model: `serialize`.

Only `extract` writes a document, so the stages that load one never
compile this module.
"""

from __future__ import annotations

import io
from itertools import chain, islice, product
from json.encoder import encode_basestring
from operator import attrgetter
from typing import Iterator

from .model import _FLAG_KEYS, FORMAT_VERSION, OcdfModel

# One template per record, so `serialize` builds no dict per record. Field
# order below is the canonical field order; do not reorder. Each string goes
# through the escaper json.dumps(ensure_ascii=False) uses, so the bytes are
# those of json.dumps(doc, ensure_ascii=False, separators=(",", ":")).

_FEATURE_JSON = '{"id":%s,"kind":"%s","name":%s,"decl":%s,"visibility":"%s",%s}'
_FLOW_JSON = '{"kind":"%s","source":%s,"target":%s,"label":%s}'
_FLAGS = attrgetter(*_FLAG_KEYS)
_FLAGS_JSON = {flags: ",".join(f'"{key}":{str(flag).lower()}'
                               for key, flag in zip(_FLAG_KEYS, flags))
               for flags in product((False, True), repeat=len(_FLAG_KEYS))}


class _Encoded(dict):
    """String -> its JSON form, each string escaped once; None -> null."""

    def __missing__(self, text: str) -> str:
        self[text] = encoded = encode_basestring(text)  # TypeError for a non-str
        return encoded


def _escape(text: str | None) -> str:
    """A name's or decl's JSON form, not kept: few of them repeat, and the
    memo would hold a second copy of most of a document's text."""
    return "null" if text is None else encode_basestring(text)  # TypeError for a non-str


def serialize(model: OcdfModel) -> bytes:
    """Canonical UTF-8 JSON bytes. Identical models produce identical bytes;
    feature/flow order is preserved as given. A record field of a type the
    document cannot hold in its place (a flag that is not a bool, a string
    field that is neither a str nor None) raises TypeError.

    The records are formatted and encoded `_BATCH` at a time, so the only
    whole copy of the document is the bytes returned."""
    text = _Encoded({None: "null"})
    out = io.BytesIO()
    write = out.write
    write(b'{"format_version":%d,"classes":[' % FORMAT_VERSION)
    for index, cls in enumerate(model.classes):
        features = cls.features
        if not {*map(type, chain.from_iterable(map(_FLAGS, features)))} <= {bool}:
            raise TypeError(f"class {cls.name!r}: a feature flag is not a bool")
        write(f'{"," if index else ""}{{"name":{text[cls.name]},"features":['.encode())
        # an enum's _value_ is an instance attribute; .value is a slower property
        _write_batches(write, (
            _FEATURE_JSON % (text[f.id], f.kind._value_, _escape(f.name), _escape(f.decl),
                             f.visibility._value_, _FLAGS_JSON[_FLAGS(f)])
            for f in features))
        write(b'],"flows":[')
        _write_batches(write, (
            _FLOW_JSON % (f.kind._value_, text[f.source], text[f.target], text[f.label])
            for f in cls.flows))
        write(b"]}")
    write(b"]}")
    return out.getvalue()


_BATCH = 256  # records formatted and encoded at a time


def _write_batches(write, docs: Iterator[str]) -> None:
    """Write the records' JSON texts, comma-separated, as UTF-8 bytes."""
    separator = ""
    while batch := [*islice(docs, _BATCH)]:
        write((separator + ",".join(batch)).encode("utf-8"))
        separator = ","
