"""One field check for every config: a value gives the same config, or the
same ValueError, whether the config is built in Python, varied by
``dataclasses.replace`` or read from JSON."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedtrack.config import TrackerConfig, from_dict
from embedtrack.contrastive import LossConfig
from embedtrack.synth import WorldConfig

DOCUMENTS = {TrackerConfig: "tracker config", WorldConfig: "world config", LossConfig: "loss config"}

# JSON scalars, with the names and numbers the configs take among them
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2, 12) | st.floats()
           | st.floats(0.0, 1.0) | st.floats(150.0, 2000.0) | st.text(max_size=3)
           | st.sampled_from(["bisoftmax", "cosine", "single_positive", "accumulated_multi"]))
# and those nested in lists and objects
JSON_VALUES = st.recursive(SCALARS, lambda inner: (st.lists(inner, max_size=4)
                                                   | st.dictionaries(st.text(max_size=2), inner,
                                                                     max_size=2)), max_leaves=10)


def outcome(build):
    """("config", the built config) or ("error", its ValueError's message);
    any other exception fails the test."""
    try:
        return "config", build()
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.filterwarnings("ignore:beta_new")
@pytest.mark.parametrize("cls", DOCUMENTS, ids=lambda cls: cls.__name__)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_python_replace_and_json_builds_agree(cls, data):
    names = [f.name for f in dataclasses.fields(cls)]
    document = json.loads(json.dumps(data.draw(st.dictionaries(st.sampled_from(names), JSON_VALUES,
                                                               max_size=3))))
    built = outcome(lambda: cls(**document))
    assert outcome(lambda: from_dict(cls, document)) == built
    base = cls()
    assert outcome(lambda: from_dict(cls, document, base)) == built
    assert outcome(lambda: dataclasses.replace(base, **document)) == built


@pytest.mark.parametrize("given,same", [
    (TrackerConfig(beta_obj=np.float32(0.25), memory_frames=np.int64(3), merge=np.True_,
                   distance_gate=np.int32(50)),
     TrackerConfig(beta_obj=0.25, memory_frames=3, merge=True, distance_gate=50.0)),
    (WorldConfig(image_size=np.array([640, 480]), occlusions=np.array([[0, 1, 2], [3, 4, 5]]),
                 speed=np.float16(2.5), seed=np.uint8(7)),
     WorldConfig(image_size=(640.0, 480.0), occlusions=((0, 1, 2), (3, 4, 5)), speed=2.5, seed=7)),
    (WorldConfig(image_size=[640.0, 480.0], occlusions=[[0, 1, 2], (3, 4, 5)]),
     WorldConfig(image_size=(640.0, 480.0), occlusions=((0, 1, 2), (3, 4, 5)))),
    (LossConfig(gamma1=np.float64(0.5), gamma2=2), LossConfig(gamma1=0.5, gamma2=2.0)),
])
def test_numpy_scalars_lists_and_arrays_give_equal_configs(given, same):
    # a list or array left in a field would not hash
    assert given == same and hash(given) == hash(same)


@pytest.mark.parametrize("build,message", [
    (lambda: TrackerConfig(beta_obj="0.5"), "beta_obj must be float, got '0.5'"),
    (lambda: TrackerConfig(distance_gate="50"), "distance_gate must be float, got '50'"),
    (lambda: WorldConfig(speed=None), "speed must be float, got None"),
    (lambda: WorldConfig(image_size=5), "image_size must be a list of 2 values, got 5"),
    (lambda: WorldConfig(image_size=np.array(5.0)), "image_size must be a list of 2 values, got 5.0"),
    (lambda: WorldConfig(occlusions=[(0, 1, 2), (0, "1", 2)]),
     "occlusions[1][1] must be int, got '1'"),
    (lambda: LossConfig(gamma1="1"), "gamma1 must be float, got '1'"),
    (lambda: LossConfig(variant=None), "variant must be str, got None"),
])
def test_type_errors_name_the_field(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("data,message", [
    ({1: 0.5, "x": 0.5}, "unknown tracker config keys: [1, 'x']"),
    ({"zeta": 1, None: 2, (1, 2): 3}, "unknown tracker config keys: [(1, 2), None, 'zeta']"),
    ({"b": 1, "a": 2}, "unknown tracker config keys: ['a', 'b']"),
])
def test_unknown_keys_of_mixed_types_are_a_value_error(data, message):
    # sorting such keys by their own order raised a bare TypeError
    with pytest.raises(ValueError) as exc:
        from_dict(TrackerConfig, data)
    assert str(exc.value) == message


@pytest.mark.parametrize("cls", DOCUMENTS, ids=lambda cls: cls.__name__)
def test_errors_name_the_document_after_its_class(cls):
    name = DOCUMENTS[cls]
    assert outcome(lambda: from_dict(cls, [])) == ("error", f"{name} must be a JSON object, got list")
    assert outcome(lambda: from_dict(cls, {"x": 1}, cls())) == ("error", f"unknown {name} keys: ['x']")
