"""Property suites at the ``repro.system/v1`` JSON input boundary.

``SystemModel.from_dict`` decodes ``repro.system/v1`` documents. The
suites start from valid documents and apply one random mutation:
delete a key or list entry, insert an unknown key into a dict, or swap
a value for junk (``None``, bools, strings, lists, dicts, NaN,
infinities, ints too large for a float). The decoder must then either
return a model whose ``to_dict()`` decodes back to the same
fingerprint and the same document, or raise a
:class:`~repro.errors.ReproError` — never anything else. An unknown
key anywhere in a document is always refused: a misspelled optional
field (``"multiplicty"``) must not decode silently as its default.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Component, SystemModel
from repro.errors import ReproError
from repro.masking import NestedProfile, PiecewiseProfile, busy_idle_profile
from repro.units import SECONDS_PER_DAY


def _systems() -> list[SystemModel]:
    day = busy_idle_profile(0.5 * SECONDS_PER_DAY, SECONDS_PER_DAY)
    nested = NestedProfile(
        [
            (2.0, PiecewiseProfile.from_segments([(1.0, 0.5), (0.5, 0.0)])),
            (3.0, 0.25),
        ]
    )
    return [
        SystemModel(
            [Component("node", 2.0 / SECONDS_PER_DAY, day, multiplicity=8)]
        ),
        SystemModel(
            [
                Component("a", 1e-3, nested, multiplicity=3),
                Component("b", 2e-3, nested),
            ]
        ),
    ]


#: name -> (valid documents, decoder).
BOUNDARIES = {
    "repro.system/v1": (
        [system.to_dict() for system in _systems()], SystemModel.from_dict
    ),
}

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(),
    st.sampled_from([10**400, -(10**400), math.nan, math.inf, -math.inf]),
    st.floats(),
)
_JUNK = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2),
)


def _paths(node, prefix=()) -> list[tuple]:
    """The path of every key and list entry in a document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths.append((*prefix, key))
        paths += _paths(child, (*prefix, key))
    return paths


def _dicts(node) -> list[dict]:
    """Every dict in a document, the document itself included."""
    if isinstance(node, dict):
        children = node.values()
        found = [node]
    elif isinstance(node, list):
        children = node
        found = []
    else:
        return []
    for child in children:
        found += _dicts(child)
    return found


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _insert_unknown(data, target: dict) -> None:
    key = data.draw(st.text(min_size=1, max_size=12).filter(
        lambda k: k not in target
    ))
    target[key] = data.draw(_JUNK)


def _canonical(model) -> str:
    return json.dumps(model.to_dict(), sort_keys=True)


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_decode_or_refuse(boundary, data):
    documents, decode = BOUNDARIES[boundary]
    doc = copy.deepcopy(data.draw(st.sampled_from(documents)))
    mutation = data.draw(st.sampled_from(["delete", "insert", "swap"]))
    if mutation == "insert":
        _insert_unknown(data, data.draw(st.sampled_from(_dicts(doc))))
    else:
        path = data.draw(st.sampled_from(_paths(doc)))
        parent = _parent(doc, path)
        if mutation == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JUNK)
    try:
        model = decode(doc)
    except ReproError:
        return
    again = decode(model.to_dict())
    assert again.content_fingerprint == model.content_fingerprint
    assert _canonical(again) == _canonical(model)


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_unknown_keys_are_refused(boundary, data):
    documents, decode = BOUNDARIES[boundary]
    doc = copy.deepcopy(data.draw(st.sampled_from(documents)))
    _insert_unknown(data, data.draw(st.sampled_from(_dicts(doc))))
    with pytest.raises(ReproError, match="unknown"):
        decode(doc)

