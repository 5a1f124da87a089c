"""The host-speed probe: its arithmetic, and that it leaves the program alone."""

import gc
import signal
import tracemalloc

import pytest

import speed


def test_each_stretch_is_scaled_by_the_slice_after_it():
    ref, k = speed.REFERENCE_S, 2.0 ** (1.0 / speed.EXPONENT)
    # two slices: the first at reference speed, the second k times slower;
    # the last stretch has no slice after it and takes the one before
    got = speed.normalised([1.0, 2.0, 3.0], [ref, k * ref])
    assert got == pytest.approx(1.0 + 1.0 + 1.5)
    # a host k times slower for the slice slows the program k ** EXPONENT
    # times: the raw times double, the normalised ones stay
    assert speed.normalised([2.0, 4.0, 6.0], [k * ref, k * k * ref]) == pytest.approx(got)
    assert speed.speed_factor(ref, speed.SETUP_EXPONENT) == 1.0
    with pytest.raises(ValueError):
        speed.normalised([1.0], [])


def test_a_slice_leaves_no_object_behind():
    probe = speed.SpeedProbe()
    tracemalloc.start()
    try:
        for _ in range(3):  # fill the interpreter's free lists first
            probe.reference_slice()
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            probe.reference_slice()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # a slice creates 2500 events of 64 bytes each; none may survive it
    assert kept < 4096
    assert gc.isenabled()


def test_probed_run_is_byte_identical_and_restores_the_timer(small_run):
    from repro.experiments import runner
    from repro.experiments.parallel import metrics_json_bytes

    config, metrics = small_run
    previous = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(interval_s=0.01)
    probe.start()
    try:
        probed = runner.run_simulation(config)
    finally:
        probe.stop()
    assert metrics_json_bytes(probed) == metrics_json_bytes(metrics)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    out = probe.summary()
    assert out["slices"] >= 1 and len(probe.stretches) == out["slices"] + 1
    assert out["norm_wall_s"] > 0 and out["norm_cpu_s"] > 0
    assert out["wall_s"] == pytest.approx(sum(probe.stretches))
