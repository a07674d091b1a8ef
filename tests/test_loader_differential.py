"""The document loader against the per-record reference loader in
`oracles.py`: on generated documents and on one-field mutations of them,
both must load an equal model or raise an equal list of diagnostics."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ocdf.diagnostics import ModelError
from ocdf.model import Feature, Flow, deserialize, serialize

from generators import random_valid_model
from oracles import reference_deserialize
from test_model import LOADER_CASES

DIFFERENTIAL = settings(derandomize=True, max_examples=150, deadline=None, database=None)

WRONG_VALUES = [3, -1, 1.5, True, False, None, "", "bogus", "member", [], ["m"], {}, {"id": "m"}]
MUTATIONS = ["missing_key", "wrong_type", "empty_id", "duplicate_id", "dangling_endpoint",
             "list_endpoint", "repeated_flow", "extra_key"]


def outcome(load, data):
    try:
        return load(data)
    except ModelError as err:
        return err.diagnostics


def assert_same_load(data):
    assert outcome(deserialize, data) == outcome(reference_deserialize, data)


def document(seed: int) -> dict:
    return json.loads(serialize(random_valid_model(random.Random(seed))))


def mutate(doc: dict, mutation: str, rng: random.Random) -> None:
    """Change one field of `doc` in place; a document with no record to
    change is left as it is. Earlier mutations may have broken its shape."""
    classes = _records(doc, "classes")
    flow_lists = [c["flows"] for c in classes if isinstance(c.get("flows"), list)]
    features = [f for c in classes for f in _records(c, "features")]
    flows = [f for c in classes for f in _records(c, "flows")]
    records = [r for r in (doc, *classes, *features, *flows) if r]
    if mutation == "missing_key":
        record = rng.choice(records)
        del record[rng.choice(sorted(record))]
    elif mutation == "wrong_type":
        record = rng.choice(records)
        record[rng.choice(sorted(record))] = rng.choice(WRONG_VALUES)
    elif mutation == "extra_key":
        rng.choice(records)["extra"] = rng.choice(WRONG_VALUES)
    elif mutation == "empty_id" and features:
        rng.choice(features)["id"] = ""
    elif mutation == "duplicate_id" and len(features) > 1:
        first, second = rng.sample(features, 2)
        second["id"] = first.get("id")
    elif mutation in ("dangling_endpoint", "list_endpoint") and flows:
        flow = rng.choice(flows)
        end = rng.choice(["source", "target"])
        flow[end] = "ghost" if mutation == "dangling_endpoint" else [flow.get(end)]
    elif mutation == "repeated_flow" and flows:
        again = dict(rng.choice(flows), label=rng.choice([None, "again"]))
        into = rng.choice(flow_lists)
        into.insert(rng.randrange(len(into) + 1), again)


def _records(parent: dict, key: str) -> list[dict]:
    value = parent.get(key)
    return [r for r in value if isinstance(r, dict)] if isinstance(value, list) else []


@DIFFERENTIAL
@given(st.integers(0, 2**32))
def test_generated_documents_load_alike(seed):
    data = json.dumps(document(seed))
    assert_same_load(data)
    assert_same_load(data.encode("utf-8"))


@DIFFERENTIAL
@given(st.integers(0, 2**32), st.sampled_from([None, *MUTATIONS]))
def test_mutated_documents_load_alike(seed, also):
    """Each mutation on its own, then with a second one on top."""
    rng = random.Random(seed)
    for mutation in MUTATIONS:
        doc = document(seed)
        mutate(doc, mutation, rng)
        if also is not None:
            mutate(doc, also, rng)
        assert_same_load(json.dumps(doc))


@pytest.mark.parametrize("case", LOADER_CASES)
def test_loader_cases_load_alike(case):
    assert_same_load(LOADER_CASES[case])


def test_loaded_records_stay_frozen_dataclasses():
    doc = next(d for d in map(document, range(100))
               if any(c["features"] and c["flows"] for c in d["classes"]))
    cls = next(c for c in deserialize(json.dumps(doc)).classes if c.features and c.flows)
    feature, flow = cls.features[0], cls.flows[0]
    assert (type(feature), type(flow)) == (Feature, Flow)
    with pytest.raises(dataclasses.FrozenInstanceError):
        feature.name = "other"
    assert dataclasses.replace(feature, name="other").name == "other"
    assert dataclasses.replace(flow, label="x") == Flow(flow.kind, flow.source, flow.target, "x")
    assert hash(feature) == hash(dataclasses.replace(feature))
