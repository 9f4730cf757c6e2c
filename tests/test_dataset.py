"""Loading a dataset tree: every malformed input is a typed error.

`load_dataset` must either load or raise `DataError` (malformed file) or
`MissingArtifactError` (absent file); any other exception would end the CLI
in a traceback instead of exit 3.
"""

import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layermotion import scenegen
from layermotion.dataset import load_dataset, write_dataset
from layermotion.errors import DataError, MissingArtifactError


@pytest.fixture(scope="module")
def mini_dataset(tmp_path_factory):
    """A `mini:6x24x24` dataset tree, as `lmf generate` writes it."""
    cfg = scenegen.SceneConfig(name="mini:6x24x24", n_frames=6, height=24, width=24, eval_stride=1)
    scene = scenegen.generate_scene(cfg)
    gt = scenegen.render_ground_truth(scene)
    pseudo = scenegen.degrade_to_pseudo_masks(gt, recall=cfg.recall, fpr=cfg.fpr, seed=cfg.seed)
    root = tmp_path_factory.mktemp("mini") / "dataset"
    write_dataset(root, scene, gt, pseudo, cfg)
    return root


@pytest.fixture
def ds_copy(mini_dataset, tmp_path):
    root = tmp_path / "dataset"
    shutil.copytree(mini_dataset, root)
    return root


def edit_meta(root, **changes):
    path = root / "meta.json"
    meta = json.loads(path.read_text())
    for key, value in changes.items():
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    path.write_text(json.dumps(meta))


def test_intact_tree_loads(mini_dataset):
    ds = load_dataset(mini_dataset)
    assert (ds.n_frames, ds.height, ds.width) == (6, 24, 24)


class TestMeta:
    def test_invalid_json(self, ds_copy):
        path = ds_copy / "meta.json"
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(DataError, match="not valid JSON"):
            load_dataset(ds_copy)

    def test_not_an_object(self, ds_copy):
        (ds_copy / "meta.json").write_text("[6, 24, 24]")
        with pytest.raises(DataError, match="JSON object"):
            load_dataset(ds_copy)

    @pytest.mark.parametrize("n_frames", [None, 0, -2, 2.5, "6", True])
    def test_bad_n_frames(self, ds_copy, n_frames):
        edit_meta(ds_copy, n_frames=n_frames)
        with pytest.raises(DataError, match="n_frames"):
            load_dataset(ds_copy)

    @pytest.mark.parametrize("key", ["world_lo", "world_hi"])
    @pytest.mark.parametrize("box", [None, [1.0, 1.0], [1.0, "a", 1.0], 1.25, [1.0, 1.0, False], [10**400, 1.0, 1.0]])
    def test_world_box_not_a_3_list(self, ds_copy, key, box):
        edit_meta(ds_copy, **{key: box})
        with pytest.raises(DataError, match=key):
            load_dataset(ds_copy)

    def test_world_box_empty_on_an_axis(self, ds_copy):
        edit_meta(ds_copy, world_lo=[-1.25, 5.0, -1.25])
        with pytest.raises(DataError, match="world_lo must be below world_hi on every axis"):
            load_dataset(ds_copy)

    @pytest.mark.parametrize("frames", [[0, 6], [-1], [0.5], 3])
    def test_eval_frames_outside_range(self, ds_copy, frames):
        edit_meta(ds_copy, eval_frames=frames)
        with pytest.raises(DataError, match=r"eval_frames must be frame indices in \[0, 6\)"):
            load_dataset(ds_copy)

    def test_eval_frames_required(self, ds_copy):
        # Every writer records the evaluation frames; there is no default.
        edit_meta(ds_copy, eval_frames=None)
        with pytest.raises(DataError, match=r"eval_frames must be frame indices in \[0, 6\), got None"):
            load_dataset(ds_copy)

    @pytest.mark.parametrize("frames", [[], [0, 0], [1, 3, 1]])
    def test_eval_frames_empty_or_repeated(self, ds_copy, frames):
        edit_meta(ds_copy, eval_frames=frames)
        with pytest.raises(DataError, match="eval_frames must be non-empty and name each frame once"):
            load_dataset(ds_copy)


class TestImages:
    def test_image_shape_disagrees_with_first_frame(self, ds_copy):
        (ds_copy / "pseudo" / "pseudo_0002.pgm").write_bytes(b"P5\n20 24\n255\n" + bytes(480))
        with pytest.raises(DataError, match="pseudo_0002.pgm: image is 20x24, the first frame is 24x24"):
            load_dataset(ds_copy)

    def test_truncated_frame(self, ds_copy):
        path = ds_copy / "frames" / "frame_0003.ppm"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataError, match="truncated pixel data"):
            load_dataset(ds_copy)


# One PPM and one PGM stand for the image inputs; all four go through one reader.
FUZZED_INPUTS = ["meta.json", "cameras.csv", "frames/frame_0001.ppm", "pseudo/pseudo_0004.pgm"]


@pytest.mark.parametrize("name", FUZZED_INPUTS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cut_or_flipped_input_loads_or_raises_a_typed_error(mini_dataset, name, data):
    path = mini_dataset / name
    original = path.read_bytes()
    offset = data.draw(st.integers(0, len(original) - 1), label="offset")
    if data.draw(st.booleans(), label="cut"):
        mutated = original[:offset]
    else:
        flip = data.draw(st.integers(1, 255), label="xor")
        mutated = original[:offset] + bytes([original[offset] ^ flip]) + original[offset + 1 :]
    path.write_bytes(mutated)
    try:
        load_dataset(mini_dataset)
    except (DataError, MissingArtifactError):
        pass
    finally:
        path.write_bytes(original)
