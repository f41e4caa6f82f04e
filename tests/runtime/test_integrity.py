"""The data-integrity layer: ABFT seals, bitflip chaos, detection, repair.

Three data planes are covered end to end:

* reduction partials corrupted between task exit and combine
  (``bitflip_partial``),
* shared operands corrupted between publish and task start
  (``bitflip_arena``),
* durable checkpoint bytes corrupted on disk (``bitflip_checkpoint``).

The contract under test: ``verify`` turns silent corruption into a typed
:class:`~repro.errors.IntegrityError`; ``repair`` recomputes/restores the
smallest corrupted unit so the run finishes **bit-identical** to a
fault-free serial run; ``off`` is byte-for-byte the pre-integrity path.
"""

from pathlib import Path
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kmeans import HierarchicalKMeans
from repro.core.lloyd import lloyd
from repro.core.result import KMeansResult
from repro.errors import ConfigurationError, IntegrityError
from repro.machine.machine import toy_machine
from repro.runtime.chaos import parse_chaos_plan, resolve_chaos
from repro.runtime.engine import (
    SerialEngine,
    TaskPolicy,
    ThreadEngine,
    resolve_engine,
)
from repro.runtime.integrity import (
    INTEGRITY_MODES,
    checksum_payload,
    crc32_array,
    manifest_digests,
    resolve_integrity,
    seal_partial,
    sha256_array,
    verified_combine,
    verify_combine,
    verify_partial,
)
from repro.runtime.process_engine import ProcessEngine
from repro.runtime.reduce import BlockPartial
from repro.runtime.shm import ArrayRef, SharedArena, as_ndarray


def make_partial(i, rows=3, cols=2):
    sums = np.full((rows, cols), float(i + 1))
    counts = np.full(rows, i + 1, dtype=np.int64)
    return BlockPartial(sums, counts, 0, rows)


def combine(a, b):
    return a.combine(b)


def event_kinds(engine):
    return [kind for kind, _, _ in engine.drain_events()]


# ---------------------------------------------------------------------------
# mode resolution
# ---------------------------------------------------------------------------

class TestResolveIntegrity:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_INTEGRITY", raising=False)
        assert resolve_integrity() == "off"

    def test_env_consulted_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_INTEGRITY", "verify")
        assert resolve_integrity() == "verify"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INTEGRITY", "verify")
        assert resolve_integrity("repair") == "repair"

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="integrity"):
            resolve_integrity("paranoid")

    def test_modes_cover_ladder(self):
        assert INTEGRITY_MODES == ("off", "verify", "repair")

    def test_constructors_never_read_env(self, monkeypatch):
        # The constructor-vs-resolver contract: an explicitly built engine
        # stays "off" under an ambient REPRO_INTEGRITY, exactly like chaos.
        monkeypatch.setenv("REPRO_INTEGRITY", "repair")
        assert SerialEngine().integrity == "off"
        assert resolve_engine(None).integrity == "repair"

    def test_resolve_engine_threads_mode(self):
        assert resolve_engine("serial", integrity="verify").integrity \
            == "verify"


# ---------------------------------------------------------------------------
# checksums, seal, verify
# ---------------------------------------------------------------------------

class TestChecksums:
    def test_crc32_is_content_only(self):
        a = np.arange(6.0)
        assert crc32_array(a) == crc32_array(a.copy())
        b = a.copy()
        b[3] = np.nextafter(b[3], np.inf)
        assert crc32_array(a) != crc32_array(b)

    def test_sha256_covers_shape_and_dtype(self):
        a = np.arange(6.0)
        assert sha256_array(a) != sha256_array(a.reshape(2, 3))
        assert sha256_array(a) != sha256_array(a.astype(np.float32))

    def test_manifest_keys_sorted(self):
        digests = manifest_digests({"b": np.ones(2), "a": np.zeros(2)})
        assert list(digests) == ["a", "b"]

    def test_payload_checksum_is_order_sensitive(self):
        a, b = np.ones(3), np.zeros(3)
        assert checksum_payload((a, b)) != checksum_payload((b, a))

    def test_payload_none_marker(self):
        assert checksum_payload((None,)) != checksum_payload(())


class TestSealVerify:
    def test_seal_stamps_crc_and_check_row(self):
        p = seal_partial(make_partial(0))
        assert p.crc is not None
        np.testing.assert_array_equal(p.check_row, p.sums.sum(axis=0))
        verify_partial(p)

    def test_unsealed_passes_vacuously(self):
        verify_partial(make_partial(0))
        verify_partial(object())
        verify_partial((np.ones(2), 3))

    def test_reseal_is_a_no_op(self):
        # Re-sealing after the chaos seam would launder corruption into a
        # fresh checksum; a sealed carrier must keep its original crc.
        p = seal_partial(make_partial(0))
        crc = p.crc
        p.sums[0, 0] += 1.0
        seal_partial(p)
        assert p.crc == crc
        with pytest.raises(IntegrityError):
            verify_partial(p)

    def test_corrupted_counts_detected(self):
        p = seal_partial(make_partial(1))
        p.counts[2] ^= 1
        with pytest.raises(IntegrityError, match="CRC32"):
            verify_partial(p)

    def test_verify_combine_accepts_clean_merge(self):
        a, b = seal_partial(make_partial(0)), seal_partial(make_partial(1))
        merged = verified_combine(combine, a, b)
        assert merged.crc is not None
        verify_partial(merged)

    def test_verify_combine_catches_dropped_mass(self):
        a, b = seal_partial(make_partial(0)), seal_partial(make_partial(1))
        merged = combine(a, b)
        merged.sums[:] = 0.0
        with pytest.raises(IntegrityError, match="check row"):
            verify_combine(a, b, merged)

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_single_bitflip_is_detected(self, data):
        # CRC32 detects every single-bit error exactly, so this property
        # is a guarantee, not a statistical statement: flip any one bit of
        # any payload array of a sealed carrier and verification fails.
        rows = data.draw(st.integers(1, 5), label="rows")
        cols = data.draw(st.integers(1, 4), label="cols")
        sums = np.asarray(
            data.draw(st.lists(
                st.floats(-1e9, 1e9, allow_nan=False, width=64),
                min_size=rows * cols, max_size=rows * cols), label="sums"),
            dtype=np.float64).reshape(rows, cols)
        counts = np.asarray(
            data.draw(st.lists(st.integers(0, 2 ** 40),
                               min_size=rows, max_size=rows),
                      label="counts"), dtype=np.int64)
        partial = seal_partial(BlockPartial(sums, counts, 0, rows))
        target = data.draw(st.sampled_from(["sums", "counts"]),
                           label="target")
        array = getattr(partial, target)
        byte = data.draw(st.integers(0, array.nbytes - 1), label="byte")
        bit = data.draw(st.integers(0, 7), label="bit")
        array.reshape(-1).view(np.uint8)[byte] ^= np.uint8(1 << bit)
        with pytest.raises(IntegrityError):
            verify_partial(partial)


# ---------------------------------------------------------------------------
# chaos grammar
# ---------------------------------------------------------------------------

class TestBitflipGrammar:
    def test_bitflip_kinds_parse(self):
        plan = parse_chaos_plan(
            "bitflip_partial:p=0.5;bitflip_arena:p=1;"
            "bitflip_checkpoint:p=1;seed=3")
        assert [s.kind for s in plan.specs] == [
            "bitflip_partial", "bitflip_arena", "bitflip_checkpoint"]
        assert plan.seed == 3

    def test_bitflip_partial_takes_kills(self):
        plan = parse_chaos_plan("bitflip_partial:p=1,kills=4")
        assert plan.specs[0].kills == 4


# ---------------------------------------------------------------------------
# engine matrix: detection and bit-identical repair
# ---------------------------------------------------------------------------

ENGINES = [
    pytest.param(lambda **kw: SerialEngine(**kw), id="serial"),
    pytest.param(lambda **kw: ThreadEngine(workers=4, **kw), id="thread"),
    pytest.param(lambda **kw: ProcessEngine(workers=2, **kw), id="process"),
]


class TestEngineMatrix:
    clean = None

    def clean_reduce(self, topology):
        return SerialEngine().map_reduce(make_partial, range(8), combine,
                                         topology=topology)

    @pytest.mark.parametrize("topology", ["serial", "tree"])
    @pytest.mark.parametrize("build", ENGINES)
    def test_verify_raises_on_partial_bitflip(self, build, topology):
        engine = build(chaos=resolve_chaos("bitflip_partial:p=0.5;seed=5"),
                       integrity="verify")
        with pytest.raises(IntegrityError):
            engine.map_reduce(make_partial, range(8), combine,
                              topology=topology)
        kinds = event_kinds(engine)
        assert "chaos" in kinds and "integrity" in kinds

    @pytest.mark.parametrize("topology", ["serial", "tree"])
    @pytest.mark.parametrize("build", ENGINES)
    def test_repair_is_bit_identical(self, build, topology):
        clean = self.clean_reduce(topology)
        engine = build(chaos=resolve_chaos("bitflip_partial:p=0.5;seed=5"),
                       integrity="repair")
        merged = engine.map_reduce(make_partial, range(8), combine,
                                   topology=topology)
        np.testing.assert_array_equal(merged.sums, clean.sums)
        np.testing.assert_array_equal(merged.counts, clean.counts)
        kinds = event_kinds(engine)
        assert kinds.count("integrity_repair") >= 1
        assert "integrity_quarantine" not in kinds

    @pytest.mark.parametrize("build", ENGINES)
    def test_off_mode_propagates_corruption(self, build):
        clean = self.clean_reduce(None)
        engine = build(chaos=resolve_chaos("bitflip_partial:p=0.5;seed=5"),
                       integrity="off")
        merged = engine.map_reduce(make_partial, range(8), combine)
        assert not np.array_equal(merged.sums, clean.sums)

    def test_persistent_corruption_quarantines(self):
        # kills > the repair budget: every recompute is corrupted again, so
        # the engine must escalate instead of looping forever.
        engine = SerialEngine(
            policy=TaskPolicy(max_retries=2, backoff_s=0.0),
            chaos=resolve_chaos("bitflip_partial:p=1,kills=9;seed=1"),
            integrity="repair")
        with pytest.raises(IntegrityError, match="persistent"):
            engine.map_reduce(make_partial, range(2), combine)
        assert "integrity_quarantine" in event_kinds(engine)

    def test_off_mode_emits_no_integrity_events(self):
        engine = SerialEngine()
        engine.map_reduce(make_partial, range(4), combine)
        assert event_kinds(engine) == []


# ---------------------------------------------------------------------------
# shared-operand (arena) plane
# ---------------------------------------------------------------------------

class TestSharedPlane:
    def test_verify_raises_on_arena_bitflip(self):
        engine = SerialEngine(
            chaos=resolve_chaos("bitflip_arena:p=1;seed=7"),
            integrity="verify")
        engine.share("x", np.arange(64.0))
        with pytest.raises(IntegrityError, match="share"):
            engine.map_reduce(make_partial, range(2), combine)

    def test_repair_restores_from_source(self):
        engine = SerialEngine(
            chaos=resolve_chaos("bitflip_arena:p=1;seed=7"),
            integrity="repair")
        source = np.arange(64.0)
        shared = engine.share("x", source)
        engine.map_reduce(make_partial, range(2), combine)
        kinds = event_kinds(engine)
        assert "integrity_repair" in kinds
        np.testing.assert_array_equal(shared, source)

    def test_identity_republish_skips_reverification(self):
        engine = SerialEngine(integrity="verify")
        X = np.arange(32.0)
        engine.share("x", X)
        engine.map_reduce(make_partial, range(2), combine)
        entry = engine._shared["x"]
        assert entry.verified
        engine.share("x", X)
        assert engine._shared["x"].verified  # carried, no re-hash needed

    def test_corruption_in_worker_segment_detected(self):
        # Worker-side defence in depth: a ref carrying a stale crc fails
        # the segment check inside as_ndarray.
        arena = SharedArena(tag="integ-test")
        try:
            array = np.arange(128.0)
            ref = arena.publish("x", array)
            good = ArrayRef(ref.name, ref.shape, ref.dtype,
                            crc=crc32_array(array))
            np.testing.assert_array_equal(as_ndarray(good), array)
            assert arena.corrupt("x", 5)
            bad = ArrayRef(ref.name, ref.shape, ref.dtype,
                           crc=crc32_array(array) ^ 0xFFFF)
            with pytest.raises(IntegrityError, match="segment"):
                as_ndarray(bad)
            assert arena.repair("x")
            np.testing.assert_array_equal(
                np.asarray(arena.view("x")), array)
        finally:
            arena.drain()


# ---------------------------------------------------------------------------
# end to end through lloyd
# ---------------------------------------------------------------------------

def _problem():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(400, 6))
    return X, X[:5].copy()


def _fit_level(level: int, X: np.ndarray, C0: np.ndarray,
               **kwargs: Any) -> KMeansResult:
    """``lloyd`` at Level 0, the facade pinned to ``level`` above it."""
    if level == 0:
        return lloyd(X, C0, **kwargs)
    model = HierarchicalKMeans(C0.shape[0], machine=toy_machine(n_nodes=2),
                               level=level, init=C0, **kwargs)
    return model.fit(X)


class TestLloydEndToEnd:
    @pytest.mark.parametrize("topology", ["serial", "tree"])
    def test_repair_matches_fault_free_serial(self, topology):
        X, C0 = _problem()
        clean = lloyd(X, C0, max_iter=6, reduce=topology)
        engine = ThreadEngine(
            workers=4,
            chaos=resolve_chaos("bitflip_partial:p=1;seed=13"),
            integrity="repair")
        chaotic = lloyd(X, C0, max_iter=6, engine=engine, reduce=topology)
        np.testing.assert_array_equal(chaotic.centroids, clean.centroids)
        np.testing.assert_array_equal(chaotic.assignments,
                                      clean.assignments)
        repairs = sum(1 for e in chaotic.host_events
                      if e.kind == "integrity_repair")
        assert repairs >= 6  # every iteration's corrupted partial healed

    def test_off_mode_diverges_under_the_same_plan(self):
        X, C0 = _problem()
        clean = lloyd(X, C0, max_iter=6)
        engine = SerialEngine(
            chaos=resolve_chaos("bitflip_partial:p=1;seed=13"),
            integrity="off")
        chaotic = lloyd(X, C0, max_iter=6, engine=engine)
        assert not np.array_equal(chaotic.centroids, clean.centroids)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_corrupted_checkpoint_resume_repairs_to_cold_start(
            self, tmp_path: Path, level: int) -> None:
        X, C0 = _problem()
        engine = SerialEngine(
            chaos=resolve_chaos("bitflip_checkpoint:p=1;seed=2"),
            integrity="repair")
        _fit_level(level, X, C0, max_iter=3, engine=engine,
                   checkpoint_every=1, checkpoint_dir=str(tmp_path))
        resumed = _fit_level(level, X, C0, max_iter=6,
                             checkpoint_dir=str(tmp_path), resume=True,
                             integrity="repair")
        kinds = [e.kind for e in resumed.host_events]
        assert "integrity" in kinds  # detected the rotted snapshot
        assert "resume" not in kinds  # a rotted snapshot is not a missing one
        clean = _fit_level(level, X, C0, max_iter=6)
        np.testing.assert_array_equal(resumed.centroids, clean.centroids)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_corrupted_checkpoint_resume_raises_under_verify(
            self, tmp_path: Path, level: int) -> None:
        X, C0 = _problem()
        engine = SerialEngine(
            chaos=resolve_chaos("bitflip_checkpoint:p=1;seed=2"),
            integrity="verify")
        _fit_level(level, X, C0, max_iter=3, engine=engine,
                   checkpoint_every=1, checkpoint_dir=str(tmp_path))
        with pytest.raises(IntegrityError):
            _fit_level(level, X, C0, max_iter=6,
                       checkpoint_dir=str(tmp_path), resume=True,
                       integrity="verify")

    def test_chaos_replay_is_deterministic(self):
        X, C0 = _problem()

        def run():
            engine = SerialEngine(
                chaos=resolve_chaos("bitflip_partial:p=1;seed=13"),
                integrity="off")
            result = lloyd(X, C0, max_iter=5, engine=engine)
            return result.centroids

        np.testing.assert_array_equal(run(), run())
