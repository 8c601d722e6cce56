"""The public surface: every exported name resolves, the names folded into
one entry point stay gone, and the benchmark's tracer (``perfbench/``) can
still wrap every name it looks up and put each one back."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import embedtrack
from embedtrack import geometry, metrics, tracker

MODULES = sorted(m.name for m in pkgutil.iter_modules(embedtrack.__path__))

REMOVED = {
    "similarity": ("bisoftmax_matrix", "bisoftmax_components", "_mean", "_bisoftmax_terms"),
    "contrastive": ("loss_embed", "loss_aux", "IndexedBatch"),
    "synth": ("track_scenario",),
    "metrics": ("_hota_matches", "_Hota", "_Idf1"),
    "formats": ("trackset_to_mot_rows",),
    "tracker": ("_within", "Backdrop", "_rows", "_gather"),
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
    ("tracker", "TrackerConfig"): ("same_class_only",),
    # association state lives in the tracker's rows, not on the track
    ("tracker", "Track"): ("embedding", "last_box", "last_active_frame", "created_frame"),
    # objects move linearly; the embedding norm and score ranges are constants
    ("synth", "WorldConfig"): ("motion", "walk_sigma", "tau", "score_range", "fp_score_range",
                               "distractor_score_range"),
}


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
