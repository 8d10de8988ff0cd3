"""Tests for the deterministic fault injector."""

import numpy as np
import pytest

from repro.core.config import LPAConfig
from repro.errors import (
    ConfigurationError,
    HashtableFullError,
    KernelTimeoutError,
    TransientKernelError,
)
from repro.gpu.kernel import KernelKind
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultContext,
    FaultInjector,
    FaultSpec,
)
from repro.types import EMPTY_KEY


def make_ctx(phase="accumulate", **kw):
    device = LPAConfig().device
    defaults = dict(
        phase=phase,
        engine="hashtable",
        kernel=KernelKind.THREAD_PER_VERTEX,
        device=device,
        wave=np.arange(4, dtype=np.int64),
        labels=np.arange(10, dtype=np.int64),
    )
    defaults.update(kw)
    return FaultContext(**defaults)


class TestFaultSpec:
    def test_defaults_valid(self):
        spec = FaultSpec()
        assert spec.kinds == ("overflow",)
        assert spec.rate == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kinds=("meteor-strike",))

    def test_empty_kinds_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kinds=())

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(rate=-0.1)

    def test_bad_probe_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(probe_depth=0)

    def test_bad_bitflip_target_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(targets=("registers",))


class TestArming:
    def test_deterministic_across_instances(self):
        spec = FaultSpec(kinds=FAULT_KINDS, seed=7)
        a = FaultInjector(spec)
        b = FaultInjector(spec)
        kinds_a = [a.arm(i, 0) for i in range(20)]
        kinds_b = [b.arm(i, 0) for i in range(20)]
        assert kinds_a == kinds_b

    def test_attempt_rerolls(self):
        spec = FaultSpec(kinds=FAULT_KINDS, rate=0.5, seed=3)
        inj = FaultInjector(spec)
        rolls = {inj.arm(0, attempt) for attempt in range(32)}
        assert None in rolls  # some attempts pass clean at rate 0.5
        assert rolls - {None}  # and some fire

    def test_rate_zero_never_arms(self):
        inj = FaultInjector(FaultSpec(rate=0.0))
        assert all(inj.arm(i, 0) is None for i in range(50))

    def test_max_fires_budget(self):
        inj = FaultInjector(FaultSpec(kinds=("timeout",), max_fires=2))
        fired = 0
        for i in range(10):
            if inj.arm(i, 0) is None:
                continue
            with pytest.raises(KernelTimeoutError):
                inj(make_ctx())
            fired += 1
        assert fired == 2
        assert inj.arm(99, 0) is None

    def test_disarm_suppresses(self):
        inj = FaultInjector(FaultSpec(kinds=("overflow",)))
        assert inj.arm(0, 0) == "overflow"
        inj.disarm()
        inj(make_ctx())  # no raise
        assert inj.fires == 0


class TestRaisingFaults:
    @pytest.mark.parametrize(
        "kind,exc",
        [
            ("overflow", HashtableFullError),
            ("timeout", KernelTimeoutError),
            ("cas-storm", TransientKernelError),
        ],
    )
    def test_kind_raises(self, kind, exc):
        inj = FaultInjector(FaultSpec(kinds=(kind,)))
        inj.arm(0, 0)
        with pytest.raises(exc):
            inj(make_ctx())
        assert inj.fires == 1

    def test_overflow_message_names_probe_depth(self):
        inj = FaultInjector(FaultSpec(kinds=("overflow",), probe_depth=5))
        inj.arm(0, 0)
        with pytest.raises(HashtableFullError, match="probe depth 5"):
            inj(make_ctx())

    def test_fires_only_once_per_arm(self):
        inj = FaultInjector(FaultSpec(kinds=("timeout",)))
        inj.arm(0, 0)
        with pytest.raises(KernelTimeoutError):
            inj(make_ctx())
        inj(make_ctx())  # already fired; second call is a no-op
        assert inj.fires == 1


class TestBitflip:
    def test_waits_for_reduce_phase(self):
        inj = FaultInjector(FaultSpec(kinds=("bitflip",)))
        keys = np.arange(8, dtype=np.int64)
        inj.arm(0, 0)
        inj(make_ctx(phase="accumulate", keys=keys))
        assert inj.fires == 0
        assert np.array_equal(keys, np.arange(8))

    def test_flips_high_bit_of_keys(self):
        inj = FaultInjector(FaultSpec(kinds=("bitflip",), key_bit=41))
        keys = np.arange(64, dtype=np.int64)
        inj.arm(0, 0)
        inj(make_ctx(phase="reduce", keys=keys))
        assert inj.fires == 1
        flipped = np.flatnonzero(keys >= (1 << 41))
        assert flipped.shape[0] >= 1

    def test_respects_live_regions(self):
        # two tables: slots [0,4) live for table 0, [8,10) for table 1;
        # everything else must stay untouched.
        keys = np.full(16, EMPTY_KEY, dtype=np.int64)
        keys[0:4] = [1, 2, EMPTY_KEY, 3]
        keys[8:10] = [4, 5]
        before = keys.copy()
        inj = FaultInjector(FaultSpec(kinds=("bitflip",)))
        inj.arm(0, 0)
        inj(
            make_ctx(
                phase="reduce",
                keys=keys,
                base=np.array([0, 8], dtype=np.int64),
                p1=np.array([4, 2], dtype=np.int64),
            )
        )
        changed = np.flatnonzero(keys != before)
        assert changed.shape[0] >= 1
        live = {0, 1, 3, 8, 9}  # occupied slots only
        assert set(changed.tolist()) <= live

    def test_value_target_flips_exponent(self):
        inj = FaultInjector(
            FaultSpec(kinds=("bitflip",), targets=("values",))
        )
        keys = np.arange(8, dtype=np.int64)
        values = np.ones(8, dtype=np.float32)
        inj.arm(0, 0)
        inj(make_ctx(phase="reduce", keys=keys, values=values))
        assert (values != 1.0).sum() == 1

    def test_deterministic_corruption(self):
        def run():
            inj = FaultInjector(FaultSpec(kinds=("bitflip",), seed=11))
            keys = np.arange(128, dtype=np.int64)
            inj.arm(4, 1)
            inj(make_ctx(phase="reduce", keys=keys))
            return keys

        assert np.array_equal(run(), run())


class TestFaultsOnFusedSweep:
    """Injected corruption lands on the production sweep's buffers."""

    @pytest.mark.parametrize("kind", ["bitflip", "sdc"])
    @pytest.mark.parametrize(
        "grow, branch",
        # Tables at the paper's size are dense enough for the segmented
        # branch; regrown (4x) tables are sparse enough for the sorted one.
        [(0, "segmented_max_key"), (2, "fused_max_and_clear")],
    )
    def test_corrupted_slots_reach_the_fused_reduce(
        self, monkeypatch, small_web, kind, grow, branch
    ):
        from repro.core import engine_hashtable
        from repro.core.pruning import Frontier

        engine = engine_hashtable.HashtableEngine(small_web, LPAConfig())
        for _ in range(grow):
            engine.grow_tables()
        injector = FaultInjector(
            FaultSpec(kinds=(kind,), targets=("keys", "values"))
        )

        corrupted = []  # slots the firing changed
        reduced = []    # (branch, were they among the claimed slots?)

        def fire(ctx):
            keys, bits = ctx.keys.copy(), ctx.values.view(np.uint32).copy()
            injector(ctx)
            changed = np.flatnonzero(
                (ctx.keys != keys) | (ctx.values.view(np.uint32) != bits)
            )
            if changed.shape[0]:
                corrupted.append(changed)

        def spy(name):
            real = getattr(engine_hashtable, name)

            def reduce(*args, **kwargs):
                if len(corrupted) > len(reduced):
                    slots, _ = engine._tracker.views()
                    reduced.append((name, bool(np.isin(corrupted[-1], slots).all())))
                return real(*args, **kwargs)

            return reduce

        for name in ("fused_max_and_clear", "segmented_max_key"):
            monkeypatch.setattr(engine_hashtable, name, spy(name))
        engine.fault_hook = fire
        assert injector.arm(0, 0) == kind
        labels = np.arange(small_web.num_vertices, dtype=np.int64)
        engine.move(labels, Frontier(small_web), pick_less=False, iteration=0)

        assert injector.fires == 1 and len(corrupted) == 1
        assert reduced == [(branch, True)]
        # The sweep re-cleared the corrupted slots with the rest.
        assert np.all(engine.tables.keys == EMPTY_KEY)
        assert not np.any(engine.tables.values)
