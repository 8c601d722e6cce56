"""The public surface: every exported name resolves, the names, parameters
and class attributes folded away stay gone, the number of defaulted
parameters and fields is pinned, a checked dataclass stays as its checks
found it, and the benchmark's tracer (``perfbench/``) can still wrap every
name it looks up and put each one back."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import sys
import textwrap
import typing
from pathlib import Path

import numpy as np
import pytest

import embedtrack
from embedtrack import contrastive, geometry, metrics, synth, tracker

MODULES = sorted(m.name for m in pkgutil.iter_modules(embedtrack.__path__))

REMOVED = {
    "similarity": ("bisoftmax_matrix", "bisoftmax_components", "_mean", "_bisoftmax_terms"),
    "contrastive": ("loss_embed", "loss_aux", "IndexedBatch"),
    "synth": ("track_scenario",),
    "metrics": ("_hota_matches", "_Hota", "_Idf1"),
    "formats": ("trackset_to_mot_rows",),
    "tracker": ("_within", "Backdrop", "_rows", "_gather", "MergeConfig"),
    "geometry": ("iou", "center_distance_matrix", "centers_within"),
    # config.from_dict reads every JSON document
    "config": ("config_from_dict", "_from_dict"),
}

# removed parameters and fields; most only ever took one value and are
# module constants now
REMOVED_PARAMETERS = {
    ("formats", "write_mot"): ("conf", "scores"),
    ("synth", "place_prototypes"): ("iters", "eta"),
    ("synth", "iou_baseline_track"): ("iou_match_threshold", "min_score"),
    ("synth", "oracle_tracks"): ("min_score",),
    ("contrastive", "assign_samples"): ("alpha1", "alpha2"),
    ("contrastive", "sample_batch"): ("ref_pos_ratio", "n_iou_bins", "neg_iou_upper", "sizes"),
    ("contrastive", "make_toy_problem"): ("init_scale",),
    ("contrastive", "finite_difference_gradient"): ("h",),
    # every consecutive-frame pair of the toy problem is the same batch
    ("contrastive", "ToyProblem"): ("batches",),
    ("ablation", "gradient_check"): ("cfg", "h"),
    ("ablation", "random_batch"): ("n_identities", "scale"),
    ("metrics", "HotaResult"): ("alphas",),
    ("geometry", "nms"): ("class_agnostic",),
    # the match score and the merge window, score and radius are constants;
    # nms_threshold=1.0 keeps every box
    ("tracker", "TrackerConfig"): ("same_class_only", "beta_match", "duplicate_removal"),
    ("tracker", "merge_tracklets"): ("merge",),
    # association state lives in the tracker's rows, not on the track
    ("tracker", "Track"): ("embedding", "last_box", "last_active_frame", "created_frame"),
    # objects move linearly; the embedding norm, score ranges and box sizes are constants
    ("synth", "WorldConfig"): ("motion", "walk_sigma", "tau", "score_range", "fp_score_range",
                               "distractor_score_range", "box_size_range"),
    # the auxiliary loss keeps three hard negatives per positive pair
    ("contrastive", "LossConfig"): ("aux_neg_ratio",),
}


# removed methods and properties of classes that stay; each is a test
# reference in tests/oracles.py now
REMOVED_ATTRIBUTES = {
    ("metrics", "TrackSet"): ("visible_frames", "restrict_class", "class_ids", "num_boxes"),
    ("geometry", "BoundingBox"): ("area",),
    # a world document is read by config.from_dict, as every config is
    ("synth", "WorldConfig"): ("from_dict",),
}

# function-parameter defaults plus class fields with a default, over every
# module of the package; a change that adds or removes an option changes
# this number and says why: 60 since ClassMetrics lost its 19 defaults,
# which no caller used (every report row is built whole)
DEFAULTED = 60

# the lines of src/embedtrack/*.py, as wc -l counts them; a change that
# moves this number states its line delta: 3,334 after each frame came to
# be a tracker.Frame that keeps its checked arrays, which step tracks
# instead of gathering them from Detection objects (tracker.py +62: the
# Frame type and its adapter; formats.py +11: one Frame per frame read,
# and the uppercase scan; synth.py +2), and NMS came to suppress through
# its listed pairs rather than an N x N matrix (geometry.py +8)
SRC_LINES = 3334


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"embedtrack.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_exports_resolve_to_their_modules():
    tree = ast.parse(Path(embedtrack.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"embedtrack.{node.module}")
        for alias in node.names:
            assert getattr(embedtrack, alias.name) is getattr(source, alias.name), alias.name


def test_removed_names_are_gone():
    for name, gone in REMOVED.items():
        mod = importlib.import_module(f"embedtrack.{name}")
        for attr in gone:
            assert not hasattr(mod, attr) and not hasattr(embedtrack, attr), f"{name}.{attr}"
            assert attr not in getattr(mod, "__all__", ())


@pytest.mark.parametrize("owner,gone", REMOVED_PARAMETERS.items(), ids=lambda v: ".".join(v))
def test_removed_parameters_are_gone(owner, gone):
    fn = getattr(importlib.import_module(f"embedtrack.{owner[0]}"), owner[1])
    assert not set(gone) & set(inspect.signature(fn).parameters)


@pytest.mark.parametrize("owner,gone", REMOVED_ATTRIBUTES.items(), ids=lambda v: ".".join(v))
def test_removed_attributes_are_gone(owner, gone):
    cls = getattr(importlib.import_module(f"embedtrack.{owner[0]}"), owner[1])
    assert [attr for attr in gone if hasattr(cls, attr)] == []


def _defaulted(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_defaulted_parameters_and_fields_are_pinned():
    sources = sorted(Path(embedtrack.__file__).parent.glob("*.py"))
    assert sum(_defaulted(ast.parse(path.read_text())) for path in sources) == DEFAULTED


def test_src_line_count_is_pinned():
    sources = sorted(Path(embedtrack.__file__).parent.glob("*.py"))
    assert sum(path.read_bytes().count(b"\n") for path in sources) == SRC_LINES


DATACLASSES = sorted(
    (cls for m in MODULES for cls in vars(importlib.import_module(f"embedtrack.{m}")).values()
     if dataclasses.is_dataclass(cls) and cls.__module__ == f"embedtrack.{m}"),
    key=lambda cls: cls.__qualname__)

# checked dataclasses that stay mutable, with the reason
MUTABLE_CHECKED = {
    "RegionSample": "the benchmark's proposal_frame assigns each sample's embedding",
}


def _raises(method) -> bool:
    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
    return any(isinstance(node, ast.Raise) for node in ast.walk(tree))


def _mutable_types(tp) -> set:
    """The list, dict and set types anywhere in the type hint ``tp``."""
    found = {typing.get_origin(tp) or tp} & {list, dict, set}
    for arg in typing.get_args(tp):
        found |= _mutable_types(arg)
    return found


def test_checked_dataclasses_are_frozen():
    """A dataclass whose fields can be assigned after ``__post_init__``
    checked them holds what no check saw."""
    checked = [cls for cls in DATACLASSES
               if "__post_init__" in vars(cls) and _raises(cls.__post_init__)]
    assert {cls.__name__ for cls in checked if not cls.__dataclass_params__.frozen} == set(MUTABLE_CHECKED)


@pytest.mark.parametrize("cls", [c for c in DATACLASSES if c.__dataclass_params__.frozen],
                         ids=lambda c: c.__name__)
def test_frozen_dataclasses_hold_no_mutable_containers(cls):
    hints = typing.get_type_hints(cls)
    found = {f.name: _mutable_types(hints[f.name]) for f in dataclasses.fields(cls)}
    assert {name: types for name, types in found.items() if types} == {}


# the float fields of the configs: config.check_fields, which every config
# runs whether it is built in Python or from JSON, rejects a bool there
CONFIG_FLOAT_FIELDS = [
    (cls, f.name) for cls in (tracker.TrackerConfig, synth.WorldConfig, contrastive.LossConfig)
    for f in dataclasses.fields(cls) if typing.get_type_hints(cls)[f.name] in (float, float | None)]


@pytest.mark.parametrize("cls,name", CONFIG_FLOAT_FIELDS, ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
def test_config_float_fields_reject_bools(cls, name, value):
    # momentum=True would keep no past embedding; distance_gate=True is a 1-pixel gate
    for build in (cls, lambda **kw: dataclasses.replace(cls(), **kw)):
        with pytest.raises(ValueError, match=rf"\b{name}\b") as exc:
            build(**{name: value})
        assert str(exc.value) == f"{name} must be float, got {value!r}"


def test_config_float_fields_are_all_found():
    # six tracker fields with distance_gate, seven world fields, two loss weights
    assert [len([c for c, _ in CONFIG_FLOAT_FIELDS if c is cls]) for cls in
            (tracker.TrackerConfig, synth.WorldConfig, contrastive.LossConfig)] == [6, 7, 2]


def _tracing(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_this_package_and_restores_every_attribute(monkeypatch):
    owners = [importlib.import_module(f"embedtrack.{m}") for m in MODULES] + [tracker.Tracker]
    before = {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}
    tracing = _tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.install_embedtrack(tracer)
        patched = {key for key, value in before.items() if vars(key[0]).get(key[1]) is not value}
    finally:
        tracer.uninstall()
    # the names the tracer wraps because the tracker and the metrics call them
    assert {
        (tracker, "step"), (tracker.Tracker, "finish"), (tracker, "momentum_update"),
        (tracker, "center_distance"), (tracker, "masked_bisoftmax"), (tracker, "cosine_matrix"),
        (tracker, "nms"), (metrics, "clear_mot"), (metrics, "idf1"), (metrics, "hota"),
        (metrics, "iou_matrix"), (geometry, "iou_matrix"),
    } <= patched
    after = {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
