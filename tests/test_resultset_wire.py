"""The ``repro.resultset/v1`` boundary: what ``--json`` writes and
``ResultSet.from_json`` reads back.

Generated ResultSets survive ``to_json`` -> ``from_json`` -> ``to_json``
byte for byte. Any other JSON value, a valid document with one field
changed included, either loads or raises ``ConfigurationError``: never
a raw ``KeyError``, ``TypeError`` or ``AttributeError``.
"""

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.comparison import MethodComparison
from repro.errors import ConfigurationError
from repro.methods import ResultSet
from repro.methods.results import SCHEMA
from repro.reliability.metrics import MTTFEstimate

names = st.text(alphabet="abcdefghij_xyz", min_size=1, max_size=10)

estimates = st.builds(
    MTTFEstimate,
    mttf_seconds=st.floats(min_value=0.0, exclude_min=True),
    std_error_seconds=st.floats(min_value=0.0, allow_nan=False),
    trials=st.integers(min_value=0),
    method=names,
)

comparisons = st.builds(
    MethodComparison,
    system_label=st.text(max_size=20),
    reference=estimates,
    estimates=st.dictionaries(names, estimates, max_size=3),
)

result_sets = st.builds(
    ResultSet,
    comparisons=st.lists(comparisons, max_size=3),
    methods=st.lists(names, max_size=3),
    reference_method=names,
    mc_token=st.none() | st.text(max_size=40),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=12,
)


def load_or_refuse(data) -> None:
    """Load ``data``; a refusal must be a ConfigurationError."""
    try:
        ResultSet.from_dict(data)
    except ConfigurationError:
        pass


def paths(node, prefix=()):
    """The key path of every value below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield (*prefix, key)
        yield from paths(value, (*prefix, key))


@given(result_sets)
def test_round_trip_keeps_every_byte(result_set):
    text = result_set.to_json()
    loaded = ResultSet.from_json(text)
    assert loaded == result_set
    assert loaded.to_json() == text


@given(json_values)
def test_any_json_value_loads_or_is_refused(value):
    load_or_refuse(value)
    if isinstance(value, dict):
        load_or_refuse({**value, "schema": SCHEMA})


@given(result_sets, st.data())
def test_one_changed_field_loads_or_is_refused(result_set, data):
    document = result_set.to_dict()
    path = data.draw(st.sampled_from(list(paths(document))))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(json_values)
    load_or_refuse(document)


#: A valid document for the refusal cases below to break.
VALID = {
    "schema": SCHEMA,
    "methods": ["avf"],
    "reference_method": "monte_carlo",
    "comparisons": [
        {
            "system_label": "uni",
            "reference": {"mttf_seconds": 2.0, "trials": 100},
            "estimates": {"avf": {"mttf_seconds": 1.0}},
        }
    ],
}

#: Stands for "delete this key" in a refusal case.
MISSING = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((), [1, 2], "result set wire form must be a dict, got list"),
        (("comparisons",), MISSING,
         "result set comparisons must be a list, got None"),
        (("comparisons",), {}, "comparisons must be a list, got {}"),
        (("methods",), "avf", "methods must be a list of names"),
        (("reference_method",), 1, "reference_method must be a string"),
        (("mc_token",), 7, "mc_token must be a string"),
        (("comparisons", 0), 5, "a comparison must be a mapping, got int"),
        (("comparisons", 0, "system_label"), MISSING,
         "comparison system_label must be a string, got None"),
        (("comparisons", 0, "reference"), MISSING,
         "comparison 'uni' has no reference"),
        (("comparisons", 0, "estimates"), [],
         "comparison 'uni' estimates must be a mapping, got list"),
        (("comparisons", 0, "reference", "mttf_seconds"), "1e3",
         "estimate mttf_seconds must be a number, got '1e3'"),
        (("comparisons", 0, "estimates", "avf", "mttf_seconds"), None,
         "estimate mttf_seconds must be a number, got None"),
        (("comparisons", 0, "reference", "mttf_seconds"), -1.0,
         "bad estimate: MTTF must be positive"),
        (("comparisons", 0, "reference", "trials"), 1.5,
         "estimate trials must be an integer, got 1.5"),
    ],
    ids=[
        "not-an-object", "no-comparisons", "comparisons-not-a-list",
        "methods-not-a-list", "reference-method-not-a-string",
        "token-not-a-string", "comparison-not-a-mapping", "no-label",
        "no-reference", "estimates-not-a-mapping", "mttf-a-string",
        "mttf-null", "mttf-negative", "trials-not-an-integer",
    ],
)
def test_malformed_document_refused(path, value, message):
    document = copy.deepcopy(VALID)
    if path:
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if value is MISSING:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    else:
        document = value
    with pytest.raises(ConfigurationError, match=message):
        ResultSet.from_dict(document)


def test_valid_document_loads():
    [comparison] = ResultSet.from_dict(copy.deepcopy(VALID))
    assert comparison.error("avf") == -0.5
    assert comparison.reference.trials == 100


@pytest.mark.parametrize(
    "source, message",
    [
        ("[1, 2]", "result set wire form must be a dict, got list"),
        (" ", "result set file ' ': .*No such file"),
        ("{not json", "result set text is not JSON"),
        ("{tmp}/missing.json", "result set file '{tmp}/missing.json'"),
        ("{tmp}", "result set file '{tmp}': .*Is a directory"),
        ("{tmp}/text.json", "result set file '{tmp}/text.json' is not JSON"),
        ("{tmp}/binary.json", "result set file '{tmp}/binary.json': .*decode"),
    ],
    ids=[
        "text-list", "blank-text", "text-not-json", "missing-file",
        "directory", "file-not-json", "file-not-utf8",
    ],
)
def test_from_json_refuses_unreadable_sources(source, message, tmp_path):
    """Text that starts with ``{`` or ``[`` is JSON, anything else names
    a file; neither an unreadable file nor text that is not JSON escapes
    as a raw ``OSError`` or ``JSONDecodeError``."""
    (tmp_path / "text.json").write_text("schema: v1\n", encoding="utf-8")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
    tmp = str(tmp_path)
    with pytest.raises(ConfigurationError, match=message.replace("{tmp}", tmp)):
        ResultSet.from_json(source.replace("{tmp}", tmp))
