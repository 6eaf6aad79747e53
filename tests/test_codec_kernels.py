"""The QSGD data-parallel kernels: pinned bits, a tiled Philox stream, a bounded working set.

`tests/test_codec_buckets.py` holds the bucketed and per-parameter paths to each
other on matrices smaller than one quantisation tile; neither can see a change
both paths share.  This module pins the QSGD bucket round trip itself — synced
gradients, residual slabs and RNG call counters — against digests recorded
before the kernel was tiled, on segments that span many tiles, plus the two
facts the tiling rests on: a Philox stream drawn tile by tile is the one-shot
stream, and the working set is the codes plus one tile per stage whatever the
model size.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.compression.powersgd import stable_key_hash
from repro.compression.qsgd import QUANTISE_TILE, QSGDCompressor
from repro.models.gpt_configs import functional_config
from repro.parallel.arena import ParameterArena, build_codec_buckets
from repro.parallel.collectives import CommunicationLog, SimulatedProcessGroup
from repro.parallel.engine import CompressedGradientAllReduce, ThreeDParallelEngine
from repro.plan import Boundary, CompressionSpec, ParallelPlan, Schedule
from repro.tensor.parameter import Parameter
from repro.utils.random import CounterRNG

#: One segment under a tile, several that span tiles with ragged tails, one
#: all-zero segment (scale 0: the early-out), and one bucket of its own.
DIGEST_SHAPES = ((3, 5), (128, 128), (64, 64), (129, 257), (1024, 256))
ZERO_SEGMENT = 2
#: Closes the first bucket before the (1024, 256) segment: two buckets of
#: different widths share the hook's scratch.
DIGEST_BUCKET_BYTES = 1 << 18
REDUCTIONS = 3


def qsgd_reducer(
    bits: int, deterministic: bool, error_feedback: bool
) -> CompressedGradientAllReduce:
    spec = CompressionSpec(
        codec="qsgd",
        bits=bits,
        error_feedback=error_feedback,
        stage_fraction=1.0,
        min_elements=0,
    )
    reducer = CompressedGradientAllReduce(spec, num_stages=1, seed=5)
    reducer.compressor.deterministic = deterministic
    return reducer


def replica_arenas(shapes, dp: int) -> tuple[list[ParameterArena], list[list[Parameter]]]:
    """``dp`` one-stage arenas over the same parameter layout, and each one's parameters."""
    arenas, replicas = [], []
    for _ in range(dp):
        parameters = [
            Parameter(np.zeros(shape), name=f"weight{index}")
            for index, shape in enumerate(shapes)
        ]
        arenas.append(ParameterArena(parameters))
        replicas.append(parameters)
    return arenas, replicas


def qsgd_bucket_digest(bits: int, deterministic: bool, error_feedback: bool, dp: int) -> str:
    """SHA-256 over ``REDUCTIONS`` bucket round trips of the QSGD DP hook."""
    reducer = qsgd_reducer(bits, deterministic, error_feedback)
    arenas, replicas = replica_arenas(DIGEST_SHAPES, dp)
    buckets = build_codec_buckets(
        arenas[0],
        [replicas[0]],
        DIGEST_BUCKET_BYTES,
        select=lambda stage, p: reducer.codec_applies(stage, p.grad),
    )
    assert len(buckets) == 2
    group = SimulatedProcessGroup(list(range(dp)), CommunicationLog(), category="data_parallel")
    digest = hashlib.sha256()
    for reduction in range(REDUCTIONS):
        rng = np.random.default_rng(1000 * bits + 10 * dp + reduction)
        for parameters in replicas:
            for index, parameter in enumerate(parameters):
                if index == ZERO_SEGMENT:
                    parameter.grad[...] = 0.0
                else:
                    magnitude = 10.0 ** rng.integers(-4, 3)
                    parameter.grad[...] = rng.standard_normal(parameter.grad.shape) * magnitude
        for bucket in buckets:
            reducer.reduce_codec_bucket(bucket, [arena.grad for arena in arenas], group)
        for arena in arenas:
            digest.update(arena.grad.tobytes())
    residuals = reducer._bucket_residuals.state_dict()
    for key in sorted(residuals):
        digest.update(key.encode("ascii"))
        digest.update(residuals[key].tobytes())
    counts = reducer.compressor._call_counts
    digest.update(json.dumps(counts, sort_keys=True).encode("ascii"))
    # Every replica's payload: the records carry one rank's.
    payload = dp * sum(record.payload_bytes for record in group.log.records)
    digest.update(str(payload).encode("ascii"))
    return digest.hexdigest()


DIGEST_GRID = [
    (bits, deterministic, error_feedback, dp)
    for bits in (1, 4, 8)
    for deterministic in (False, True)
    for error_feedback in (True, False)
    for dp in (2, 3)
]

#: Recorded with ``qsgd_bucket_digest`` on 6a76f46, the last commit with the
#: untiled kernel (per-key full-size scratch, per-bucket approximation and
#: corrected scratch).  Keys are ``(bits, deterministic, error_feedback, dp)``.
PINNED_DIGESTS = {
    (1, False, True, 2): "9ab5049ed56a5bf6dd53a128abe851ef70d13b5e19d150ae10ce73cd88b0e75f",
    (1, False, True, 3): "8449439ad8609173eaca2e0351383328bbc6ce0a67476700df972b11d03858eb",
    (1, False, False, 2): "d81cdc37b0fff884382f3fb0f26f224dc61eccf81433dbfb8765c95b67ceebda",
    (1, False, False, 3): "5501131e2c85090edc9a03c05734d252fc2a6dbfc280bad5a5245947e14d7def",
    (1, True, True, 2): "b75087b1e98ba263115071e045de3dc7e044549fe2062b29a06892d03ed3bb05",
    (1, True, True, 3): "5605ada8c2faa3087bef6dc102c4c7426e8a7cb66ed9c4f3177537c10b42e179",
    (1, True, False, 2): "6595c9b9f81a750acefdce9819851b0f70b2d347841c733df71ba2632c8a3312",
    (1, True, False, 3): "60d364ab6ff7d09bf3823b6a02cb6c407e1cb487f353292d2de800fad7e9fecc",
    (4, False, True, 2): "457ba2d3ee5b9a5a0839328c36193e35ff9744d803e60ccd7298f87f85a31c3d",
    (4, False, True, 3): "98c7134ceebac1455ff90f8c6323a5eaad1b3d9c910be614bb4964c756b7f912",
    (4, False, False, 2): "1a885acb0d52e521be339cdbee72126de5f081b8617d23b30a4b60dd56bd5085",
    (4, False, False, 3): "3ac47bef1da112552b8a65e7c57e72448d3d20045aa6fa4dceb63b36ab4174e0",
    (4, True, True, 2): "b4867e364f1a6ed4f22014ddda8b73a4ae73addb79e71a48a30a3b068b6a687a",
    (4, True, True, 3): "639f8cd93ead12557e1a20156758be93ec391f297ca31471855e25d9ef9e48d6",
    (4, True, False, 2): "fcaa62e90c75d4b86cb041bae514d93a558a87d5e6b917b37b3233632f91edee",
    (4, True, False, 3): "c6588bd8c0812c4105806ca5f3038050716810d46dd874579ca408043029599e",
    (8, False, True, 2): "0fa9814d1a15423c7422c20ca03473617d67576dd5884ac6a1c313844828a359",
    (8, False, True, 3): "b24e32ae7d1a30ee4e259e434cc1f75381881723d27dacb11a237bfc802514f7",
    (8, False, False, 2): "3874e828f2450bbd5dc91e416a4c05e59b9b894afa973e9ede60e0b33c9ed6a1",
    (8, False, False, 3): "c172b0eb40ca41377ba59c542c2b759a8973cbcadd33b6d33f805d724e3e1ba2",
    (8, True, True, 2): "e99fbe3b1c7549202c8768ecb1654339f5edde4172e6a11aebe00af6861aac2a",
    (8, True, True, 3): "cb5ecddd2c7c0fb5734f8a28ef16e098b65b6e226ccc76e9f2fa44059b6c6f71",
    (8, True, False, 2): "df013ac902eef7381fb858cbd412cb264f723dca46b24ecd1b4cd93a73748a20",
    (8, True, False, 3): "3d6755f085ac7c9938463c54663675342fb68bac88ef64e1423b11b5d83be4b3",
}


class TestQSGDBucketDigest:
    @pytest.mark.parametrize("bits, deterministic, error_feedback, dp", DIGEST_GRID)
    def test_bucket_round_trip_matches_the_untiled_kernel(
        self, bits, deterministic, error_feedback, dp
    ):
        actual = qsgd_bucket_digest(bits, deterministic, error_feedback, dp)
        assert actual == PINNED_DIGESTS[(bits, deterministic, error_feedback, dp)]


class TestTiledStream:
    LENGTH = 2 * QUANTISE_TILE + 4097
    CHUNKS = {
        "one": [1] * LENGTH,
        "three": [3] * (LENGTH // 3) + [LENGTH % 3],
        "tile": [QUANTISE_TILE, QUANTISE_TILE, 4097],
        "mixed": [1, 3, QUANTISE_TILE, LENGTH - 4 - QUANTISE_TILE],
    }

    @pytest.mark.parametrize("chunks", sorted(CHUNKS))
    def test_philox_drawn_in_tiles_is_the_one_shot_stream(self, chunks):
        sizes = self.CHUNKS[chunks]
        assert sum(sizes) == self.LENGTH and sizes[-1] % 2 == 1
        rng = CounterRNG(seed=11)
        whole = np.empty(self.LENGTH, dtype=np.float32)
        rng.at(stream=0xC0DEC, counter=4).random(out=whole, dtype=np.float32)
        tiled = np.empty_like(whole)
        generator = rng.at(stream=0xC0DEC, counter=4)
        start = 0
        for size in sizes:
            generator.random(out=tiled[start : start + size], dtype=np.float32)
            start += size
        assert tiled.tobytes() == whole.tobytes()

    @pytest.mark.parametrize(
        "size", [QUANTISE_TILE - 1, QUANTISE_TILE, QUANTISE_TILE + 1, 3 * QUANTISE_TILE + 5]
    )
    @pytest.mark.parametrize("bits", [1, 4, 8])
    def test_codes_are_the_one_pass_rounding_rule(self, size, bits):
        """``codes == floor(x * L / scale + u)``, ``u`` one draw of the key's stream."""
        x = np.random.default_rng(size).standard_normal(size)
        compressor = QSGDCompressor(bits=bits, seed=9)
        payload = compressor.compress_into(x, key="w")
        scale = float(np.abs(x).max())
        uniform = CounterRNG.reference_generator(9, stable_key_hash("w"), 0).random(
            size, dtype=np.float32
        )
        expected = np.floor(x * (compressor.num_levels / scale) + uniform)
        assert payload.data["scale"] == scale
        assert np.array_equal(payload.data["codes"], expected)
        approximation = compressor.decompress(payload)
        assert np.array_equal(approximation, expected / compressor.num_levels * scale)


def quant_auto_dp_engine(dp: int = 2) -> ThreeDParallelEngine:
    """``train_quant_auto``'s model and DP boundary: the comm shape, QSGD 4-bit with feedback."""
    model = functional_config(
        vocab_size=512, sequence_length=16, num_layers=4, hidden_size=256, num_heads=4
    )
    plan = ParallelPlan(schedule=Schedule(dp_fire="micro_batch")).with_topology(
        pp=2, dp=dp, micro_batches=4
    )
    plan = plan.with_boundary(
        Boundary.DP, codec="qsgd", bits=4, stage_fraction=1.0, error_feedback=True
    )
    return ThreeDParallelEngine(model, plan)


class TestWorkingSet:
    def test_qsgd_holds_its_codes_and_one_tile(self):
        engine = quant_auto_dp_engine()
        sync = engine.bucketed_sync
        segments = [segment for bucket in sync.codec_buckets for segment in bucket.segments]
        assert len(segments) == 17
        rng = np.random.default_rng(0)
        for arena in engine.arenas:
            arena.grad[...] = rng.standard_normal(arena.grad.size)
        sync.synchronize()

        # One codec per stage: its own tile, the codes of its own segments.
        compressors = engine.dp_reduce._stage_compressors
        assert sorted(compressors) == [0, 1]
        codes = sum(segment.num_elements for segment in segments) * len(engine.arenas)
        tile = QUANTISE_TILE * (np.dtype(np.float64).itemsize + np.dtype(np.float32).itemsize)
        workspace = sum(compressor.workspace_bytes() for compressor in compressors.values())
        assert codes < workspace <= codes + len(compressors) * tile
        for stage, scratch in engine.dp_reduce._codec_scratch.items():
            largest = max(
                segment.num_elements
                for bucket in sync.codec_buckets
                if bucket.stage_index == stage
                for segment in bucket.segments
            )
            assert scratch.shape == (2, largest)

    @pytest.mark.parametrize(
        "bucket_bytes, num_buckets", [(1, 5), (DIGEST_BUCKET_BYTES, 2), (1 << 30, 1)]
    )
    def test_hook_holds_one_scratch_whatever_the_bucket_count(self, bucket_bytes, num_buckets):
        reducer = qsgd_reducer(bits=4, deterministic=False, error_feedback=True)
        arenas, replicas = replica_arenas(DIGEST_SHAPES, dp=3)
        buckets = build_codec_buckets(
            arenas[0], [replicas[0]], bucket_bytes, select=lambda stage, p: True
        )
        assert len(buckets) == num_buckets
        group = SimulatedProcessGroup([0, 1, 2], CommunicationLog(), category="data_parallel")

        def reduce_all() -> None:
            for bucket in buckets:
                reducer.reduce_codec_bucket(bucket, [arena.grad for arena in arenas], group)

        reduce_all()
        (scratch,) = reducer._codec_scratch.values()  # one stage
        largest = max(int(np.prod(shape)) for shape in DIGEST_SHAPES)
        assert scratch.shape == (2, largest)  # one approximation + the running mean
        reduce_all()
        assert list(reducer._codec_scratch) == [0] and reducer._codec_scratch[0] is scratch
