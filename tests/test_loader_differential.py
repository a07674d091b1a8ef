"""The document loader against the per-record reference loader in
`oracles.py`: on generated documents and on one-field mutations of them,
both must load an equal model or raise an equal list of diagnostics."""

import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from ocdf import deserialize, loader, serialize
from ocdf.analysis import RaceHazard, SubstructureReport
from ocdf.diagnostics import Code, Diagnostic, MiniOoError, ModelError, SourceError, Subject
from ocdf.model import Feature, FeatureKind, Flow, FlowKind, Visibility

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


FLAGS = dict.fromkeys(("is_static", "is_const", "is_constructor", "inherited"), False)
THREE_FLAGS = dict.fromkeys(("is_static", "is_const", "is_constructor"), False)


@pytest.mark.parametrize("first_flags, hooked", [(FLAGS, True), (THREE_FLAGS, False)],
                         ids=["hook", "per-record"])
def test_loaded_records_are_named_tuples(monkeypatch, first_flags, hooked):
    """Both loader paths build the same records. A document of full records
    is built by the object hook as it is parsed; a feature that omits a flag
    sends its class through the per-record `_Loader.feature`."""
    calls = []
    per_record = loader._Loader.feature

    def spy(self, *args):
        calls.append(args)
        return per_record(self, *args)

    monkeypatch.setattr(loader._Loader, "feature", spy)
    doc = {"format_version": 1, "classes": [{"name": "C", "features": [
        {"id": "x", "kind": "member", "name": "x", "decl": "int", "visibility": "private",
         **first_flags},
        {"id": "f", "kind": "method", "name": "f", "decl": "f()", "visibility": "public",
         **FLAGS}],
        "flows": [{"kind": "data", "source": "f", "target": "f", "label": None}]}]}
    cls = deserialize(json.dumps(doc)).classes[0]
    assert bool(calls) is not hooked
    feature, flow = cls.features[1], cls.flows[0]
    assert (type(feature), type(flow)) == (Feature, Flow)
    assert feature == Feature("f", FeatureKind.METHOD, "f", "f()", Visibility.PUBLIC)
    assert flow == Flow(FlowKind.DATA, "f", "f") == Flow(*flow)
    with pytest.raises(AttributeError):
        feature.name = "other"
    with pytest.raises(AttributeError):
        flow.label = "x"
    assert feature._replace(name="other").name == "other"
    assert flow._replace(label="x") == Flow(flow.kind, flow.source, flow.target, "x")
    assert hash(feature) == hash(feature._replace()) == hash(tuple(feature))
    assert hash(flow) == hash(Flow(*flow))
    # equality compares the type: not a plain tuple, nor another record with these fields
    assert flow != tuple(flow) and not flow == tuple(flow)
    assert flow != RaceHazard(*flow) and not RaceHazard(*flow) == flow
    assert Subject("C") != SubstructureReport("C", ())


@pytest.mark.parametrize("error, field", [
    (ModelError([Diagnostic(Code.E_DUP_ID, "m", (Subject("C", ("a",)),))]), "diagnostics"),
    (MiniOoError([SourceError(Code.E_PARSE, "m", 1, 2)]), "errors"),
], ids=["ModelError", "MiniOoError"])
def test_load_errors_are_hashable_and_survive_a_pickle(error, field):
    assert error in {error}
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert getattr(copy, field) == getattr(error, field)
    assert (copy.args, str(copy)) == (error.args, str(error))
