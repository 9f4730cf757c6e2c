"""The baked benchmark scene, pinned block by block.

`golden_bake.sha256` holds the SHA-256 of every parameter block that
`bake_scene` writes for lmf-bench-v1, at the default field config and at the
coarse config of acceptance criterion 3. It was recorded with numpy 2.4.6 on
x86-64; a refactor of the scene geometry or the bake must keep every digest.
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from layermotion.bake import bake_scene

GOLDEN = Path(__file__).parent / "golden_bake.sha256"
CONFIGS = {
    "default": {},
    "coarse": dict(grid_res=32, ss_grid_res=24, dyn_grid_res=24, feat_channels=2, mix_k=2, dyn_mix_k=2),
}


def block_digests(params, prefix: str) -> dict:
    return {
        f"{prefix}/{name}": hashlib.sha256(np.ascontiguousarray(block, dtype="<f8").tobytes()).hexdigest()
        for name, block in params.blocks.items()
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_baked_blocks_match_golden(bench_scene, bench_dataset, name):
    params = bake_scene(bench_scene, dataclasses.replace(bench_dataset.field_config(), **CONFIGS[name]))
    expected = dict(reversed(line.split("  ", 1)) for line in GOLDEN.read_text().splitlines())
    expected = {k: v for k, v in expected.items() if k.startswith(name + "/")}
    assert block_digests(params, name) == expected
